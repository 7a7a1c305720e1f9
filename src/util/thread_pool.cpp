#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace photherm::util {

namespace {

std::atomic<std::size_t> g_concurrency_override{0};

std::size_t default_concurrency() {
  if (const char* env = std::getenv("PHOTHERM_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

/// Width budget of the region whose chunk this thread is running: 0 outside
/// any region (then `concurrency()` applies), 1 inside a region that fanned
/// out over several executors, the region's width when it ran on the caller
/// alone. A pool worker always runs at 1, so it never re-enters the pool.
thread_local std::size_t t_budget = 0;

/// Sets this thread's budget for one scope; restores it even if a chunk throws.
class BudgetScope {
 public:
  explicit BudgetScope(std::size_t budget) : saved_(t_budget) { t_budget = budget; }
  ~BudgetScope() { t_budget = saved_; }
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  std::size_t saved_;
};

/// Width of a region that asks for `threads` (0 = inherit). Inside a region
/// it is `min(threads, budget)`, one thread-local read; outside any region
/// an explicit count stands and `concurrency()` is the default.
std::size_t region_width(std::size_t threads) {
  if (t_budget != 0) {
    return threads != 0 && threads < t_budget ? threads : t_budget;
  }
  return std::min(threads != 0 ? threads : concurrency(), kMaxThreads);
}

/// A region that runs on the caller alone (width 1, or one chunk): the
/// caller keeps the region's width for the regions its chunks issue, so a
/// width-1 region is serial all the way down.
template <typename ChunkFn>
void run_alone(std::size_t width, std::size_t chunk_count, const ChunkFn& chunk_fn) {
  BudgetScope scope(width);
  for (std::size_t i = 0; i < chunk_count; ++i) {
    chunk_fn(i);
  }
}

}  // namespace

std::size_t concurrency() {
  const std::size_t forced = g_concurrency_override.load(std::memory_order_relaxed);
  const std::size_t resolved = forced > 0 ? forced : default_concurrency();
  return resolved < kMaxThreads ? resolved : kMaxThreads;
}

void set_concurrency(std::size_t threads) {
  g_concurrency_override.store(threads, std::memory_order_relaxed);
}

struct ThreadPool::Impl {
  /// One parallel region. Workers pull chunk indices from `next` until it
  /// passes `count`; the caller waits until `done == count`.
  struct Job {
    std::function<void(std::size_t)> fn;
    std::size_t count = 0;
    std::size_t max_extra_workers = 0;
    /// Telemetry publish stamp (detail::now_ns at submit); -1 while
    /// telemetry is disabled so workers read no clock and take no lock.
    std::int64_t publish_ns = -1;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> claimed{0};
    std::mutex wait_mutex;
    std::condition_variable done_cv;
    std::mutex error_mutex;
    std::exception_ptr error;

    void execute_chunks() {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) {
          return;
        }
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) {
            error = std::current_exception();
          }
        }
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
          std::lock_guard<std::mutex> lock(wait_mutex);
          done_cv.notify_all();
        }
      }
    }
  };

  std::mutex mutex;
  std::condition_variable job_cv;
  std::vector<std::thread> workers;
  std::shared_ptr<Job> job;  ///< current region, null when idle
  std::uint64_t job_seq = 0;
  bool stop = false;

  void worker_loop(std::uint64_t start_seq, std::size_t worker_index) {
    // The label is kept across enable/disable cycles, so traces recorded
    // later still attribute spans to "pool-worker-N".
    telemetry::set_thread_label("pool-worker-" + std::to_string(worker_index + 1));
    std::uint64_t seen = start_seq;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      job_cv.wait(lock, [&] { return stop || job_seq != seen; });
      if (stop) {
        return;
      }
      seen = job_seq;
      std::shared_ptr<Job> current = job;
      lock.unlock();
      if (current &&
          current->claimed.fetch_add(1, std::memory_order_relaxed) < current->max_extra_workers) {
        if (current->publish_ns >= 0 && telemetry::enabled()) {
          // Wake-up latency between job submission and this worker joining.
          telemetry::timer_add(
              "pool.queue_wait",
              static_cast<std::uint64_t>(telemetry::detail::now_ns() - current->publish_ns));
        }
        BudgetScope scope(1);
        current->execute_chunks();
      }
      lock.lock();
    }
  }

  void spawn_locked(std::size_t how_many) {
    for (std::size_t i = 0; i < how_many; ++i) {
      workers.emplace_back(
          [this, seq = job_seq, index = workers.size()] { worker_loop(seq, index); });
    }
  }
};

ThreadPool::ThreadPool(std::size_t thread_count) : impl_(new Impl) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->spawn_locked(thread_count);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->job_cv.notify_all();
  for (std::thread& worker : impl_->workers) {
    worker.join();
  }
  delete impl_;
}

std::size_t ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->workers.size();
}

void ThreadPool::ensure_size(std::size_t thread_count) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (thread_count > impl_->workers.size()) {
    impl_->spawn_locked(thread_count - impl_->workers.size());
  }
}

void ThreadPool::run(std::size_t chunk_count, std::size_t max_threads,
                     const std::function<void(std::size_t)>& chunk_fn) {
  if (chunk_count == 0) {
    return;
  }
  const std::size_t width = region_width(max_threads);
  if (chunk_count == 1 || width == 1) {
    run_alone(width, chunk_count, chunk_fn);
    return;
  }

  // More executors than chunks would spawn persistent workers (the pool
  // never shrinks) that can never receive work.
  const std::size_t executors = std::min(width, chunk_count);
  ensure_size(executors - 1);
  auto job = std::make_shared<Impl::Job>();
  job->fn = chunk_fn;
  job->count = chunk_count;
  job->max_extra_workers = executors - 1;
  if (telemetry::enabled()) {
    job->publish_ns = telemetry::detail::now_ns();
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = job;
    ++impl_->job_seq;
  }
  impl_->job_cv.notify_all();

  // The caller is an executor too, and runs its chunks at budget 1 like
  // every other executor: a nested region issued from its chunk runs inline
  // instead of re-entering the pool and displacing this job from the single
  // job slot.
  {
    BudgetScope scope(1);
    job->execute_chunks();
  }

  {
    std::unique_lock<std::mutex> lock(job->wait_mutex);
    job->done_cv.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->count;
    });
  }
  {
    // Detach the finished job so late-waking workers see an exhausted
    // region at most (next > count) and do no work.
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->job == job) {
      impl_->job = nullptr;
    }
  }
  if (job->error) {
    std::rethrow_exception(job->error);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(concurrency() > 0 ? concurrency() - 1 : 0);
  return pool;
}

void parallel_for(std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t threads) {
  if (count == 0) {
    return;
  }
  PH_REQUIRE(grain > 0, "parallel_for: grain must be positive");
  const std::size_t width = region_width(threads);
  const std::size_t chunks = (count + grain - 1) / grain;
  auto run_chunk = [&](std::size_t chunk) {
    const std::size_t begin = chunk * grain;
    const std::size_t end = begin + grain < count ? begin + grain : count;
    body(begin, end);
  };
  if (chunks == 1 || width == 1) {
    // ThreadPool::run's serial path without touching the pool. The chunk
    // boundaries are the parallel path's, so reductions that key off chunk
    // indices stay bit-identical across widths.
    run_alone(width, chunks, run_chunk);
    return;
  }
  ThreadPool::shared().run(chunks, width, run_chunk);
}

}  // namespace photherm::util
