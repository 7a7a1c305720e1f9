#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "math/csr_matrix.hpp"
#include "math/vector_ops.hpp"
#include "support/fixtures.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace photherm::util {
namespace {

using fixtures::ConcurrencyGuard;

TEST(Concurrency, DefaultsToAtLeastOne) {
  ConcurrencyGuard guard;
  set_concurrency(0);
  EXPECT_GE(concurrency(), 1u);
}

TEST(Concurrency, SetOverrideWins) {
  ConcurrencyGuard guard;
  set_concurrency(3);
  EXPECT_EQ(concurrency(), 3u);
  set_concurrency(0);
  EXPECT_GE(concurrency(), 1u);
}

TEST(Concurrency, EnvVariableOverridesDefault) {
  ConcurrencyGuard guard;
  set_concurrency(0);
  ASSERT_EQ(setenv("PHOTHERM_THREADS", "5", 1), 0);
  EXPECT_EQ(concurrency(), 5u);
  ASSERT_EQ(setenv("PHOTHERM_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(concurrency(), 1u);  // malformed values fall back to hardware
  ASSERT_EQ(unsetenv("PHOTHERM_THREADS"), 0);
  // An explicit set_concurrency beats the environment.
  ASSERT_EQ(setenv("PHOTHERM_THREADS", "7", 1), 0);
  set_concurrency(2);
  EXPECT_EQ(concurrency(), 2u);
  ASSERT_EQ(unsetenv("PHOTHERM_THREADS"), 0);
}

TEST(Concurrency, AbsurdRequestsAreClampedNotSpawned) {
  ConcurrencyGuard guard;
  set_concurrency(100'000);
  EXPECT_EQ(concurrency(), kMaxThreads);
  ASSERT_EQ(setenv("PHOTHERM_THREADS", "100000", 1), 0);
  set_concurrency(0);
  EXPECT_EQ(concurrency(), kMaxThreads);
  ASSERT_EQ(unsetenv("PHOTHERM_THREADS"), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const std::size_t n = 10'007;  // prime: exercises the ragged last chunk
    std::vector<std::atomic<int>> hits(n);
    parallel_for(
        n, 64,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1);
          }
        },
        threads);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ParallelFor, ChunkBoundariesIndependentOfThreadCount) {
  const std::size_t n = 1000;
  const std::size_t grain = 96;
  auto boundaries_at = [&](std::size_t threads) {
    std::vector<std::pair<std::size_t, std::size_t>> chunks((n + grain - 1) / grain);
    parallel_for(
        n, grain, [&](std::size_t begin, std::size_t end) { chunks[begin / grain] = {begin, end}; },
        threads);
    return chunks;
  };
  const auto serial = boundaries_at(1);
  EXPECT_EQ(serial, boundaries_at(2));
  EXPECT_EQ(serial, boundaries_at(16));
  EXPECT_EQ(serial.back().second, n);
}

TEST(ParallelFor, ZeroCountIsANoop) {
  bool called = false;
  parallel_for(0, 16, [&](std::size_t, std::size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          1000, 10,
          [&](std::size_t begin, std::size_t) {
            if (begin >= 500) {
              throw std::runtime_error("boom");
            }
          },
          4),
      std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<int> count{0};
  parallel_for(100, 10, [&](std::size_t b, std::size_t e) { count += static_cast<int>(e - b); }, 4);
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, NestedCallsRunInline) {
  // Every executor of a region that fans out, the caller included, runs its
  // chunks at budget 1: a nested region completes inline on its enclosing
  // chunk's thread, without deadlocking the pool.
  std::atomic<int> total{0};
  std::atomic<int> off_thread{0};
  parallel_for(
      8, 1,
      [&](std::size_t, std::size_t) {
        const std::thread::id outer = std::this_thread::get_id();
        parallel_for(
            16, 4,
            [&](std::size_t b, std::size_t e) {
              total += static_cast<int>(e - b);
              if (std::this_thread::get_id() != outer) {
                ++off_thread;
              }
            },
            4);
      },
      4);
  EXPECT_EQ(total.load(), 8 * 16);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ParallelFor, WidthOneRegionIsSerialAllTheWayDown) {
  // The process default is 4, but a width-1 region is the budget of
  // everything it issues: no nested chunk may leave the calling thread.
  // Each nested chunk sleeps briefly so that idle pool workers, were the
  // nested region allowed to use them, would wake up and take some.
  ConcurrencyGuard guard(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  parallel_for(
      2, 1,
      [&](std::size_t, std::size_t) {
        parallel_for(16, 1, [&](std::size_t, std::size_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          if (std::this_thread::get_id() != caller) {
            ++off_thread;
          }
        });
      },
      1);
  EXPECT_EQ(off_thread.load(), 0);
}

/// True iff the two chunks of a nested 2-chunk region ran at the same time:
/// each waits (bounded) for the other to start, which only a region that
/// fans out over two executors can satisfy.
bool nested_region_fans_out() {
  std::atomic<int> started{0};
  std::atomic<int> met{0};
  parallel_for(2, 1, [&](std::size_t, std::size_t) {
    ++started;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (started.load() == 2) {
      ++met;
    }
  });
  return met.load() == 2;
}

TEST(ParallelFor, OneChunkRegionHandsItsWidthDown) {
  // A region that runs on the caller alone keeps its whole width for the
  // regions it issues, whether that width is the process default ...
  {
    ConcurrencyGuard guard(4);
    bool fanned = false;
    parallel_for(1, 1, [&](std::size_t, std::size_t) { fanned = nested_region_fans_out(); }, 4);
    EXPECT_TRUE(fanned);
  }
  // ... or an entry point's explicit width above it.
  ConcurrencyGuard guard(1);
  bool fanned = false;
  parallel_for(1, 1, [&](std::size_t, std::size_t) { fanned = nested_region_fans_out(); }, 4);
  EXPECT_TRUE(fanned);
}

TEST(ThreadPool, RunExecutesAllChunksAndRethrows) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::vector<std::atomic<int>> hits(64);
  pool.run(64, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  EXPECT_THROW(pool.run(8, 4, [](std::size_t i) {
    if (i == 3) {
      throw Error("chunk failed");
    }
  }),
               Error);
}

TEST(ThreadPool, DoesNotSpawnMoreWorkersThanChunks) {
  ThreadPool pool(0);
  std::atomic<int> count{0};
  pool.run(2, 8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 2);
  // 2 chunks need at most 1 extra executor beyond the caller; the other 6
  // requested threads must not be spawned (the pool never shrinks).
  EXPECT_LE(pool.size(), 1u);
}

TEST(ThreadPool, EnsureSizeGrowsButNeverShrinks) {
  ThreadPool pool(1);
  pool.ensure_size(4);
  EXPECT_EQ(pool.size(), 4u);
  pool.ensure_size(2);
  EXPECT_EQ(pool.size(), 4u);
}

/// The determinism contract of the reductions: bit-identical results at
/// any thread count, including the serial path.
TEST(DeterministicKernels, DotIsBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 3 * kSerialCutoff + 1234;  // well into the parallel regime
  math::Vector a(n), b(n);
  Rng rng(123);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
  }
  const auto dot_at = [&](std::size_t threads) {
    ConcurrencyGuard guard(threads);
    return math::dot(a, b);
  };
  const auto norm_at = [&](std::size_t threads) {
    ConcurrencyGuard guard(threads);
    return math::norm2(a);
  };
  const double d1 = dot_at(1);
  EXPECT_EQ(d1, dot_at(2));
  EXPECT_EQ(d1, dot_at(8));
  EXPECT_EQ(norm_at(1), norm_at(4));
}

TEST(DeterministicKernels, AxpyAndXpbyAreBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 2 * kSerialCutoff;
  math::Vector x(n), y0(n);
  Rng rng(321);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-1.0, 1.0);
    y0[i] = rng.uniform(-1.0, 1.0);
  }
  const auto axpy_then_xpby_at = [&](std::size_t threads) {
    ConcurrencyGuard guard(threads);
    math::Vector y = y0;
    math::axpy(0.37, x, y);
    const math::Vector after_axpy = y;
    math::xpby(x, -0.61, y);
    return std::make_pair(after_axpy, y);
  };
  EXPECT_EQ(axpy_then_xpby_at(1), axpy_then_xpby_at(4));
}

TEST(DeterministicKernels, SpmvIsBitIdenticalAcrossThreadCounts) {
  const std::size_t n = kSerialCutoff + 777;
  math::CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 4.0);
    if (i > 0) {
      builder.add(i, i - 1, -1.0);
    }
    if (i + 1 < n) {
      builder.add(i, i + 1, -1.0);
    }
  }
  const math::CsrMatrix a = builder.build();
  math::Vector x(n);
  Rng rng(99);
  for (double& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto multiply_at = [&](std::size_t threads) {
    ConcurrencyGuard guard(threads);
    return a.multiply(x);
  };
  const math::Vector y1 = multiply_at(1);
  EXPECT_EQ(y1, multiply_at(2));
  EXPECT_EQ(y1, multiply_at(8));
}

}  // namespace
}  // namespace photherm::util
