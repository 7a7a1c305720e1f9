#include "util/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/text_file.hpp"

// Build provenance for the run manifest. CMake scopes real values onto this
// one translation unit (set_source_files_properties in the top-level
// CMakeLists.txt); the fallbacks keep standalone builds compiling.
#ifndef PHOTHERM_GIT_SHA
#define PHOTHERM_GIT_SHA "unknown"
#endif
#ifndef PHOTHERM_BUILD_TYPE
#ifdef NDEBUG
#define PHOTHERM_BUILD_TYPE "release"
#else
#define PHOTHERM_BUILD_TYPE "debug"
#endif
#endif
#ifndef PHOTHERM_SANITIZE_NAME
#define PHOTHERM_SANITIZE_NAME "none"
#endif

namespace photherm::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// Fixed bucket count of the per-timer log2 histogram: bucket b holds
/// observations whose nanosecond value has bit width b (i.e. the interval
/// [2^(b-1), 2^b - 1]; bucket 0 holds exact zeros), clamped at the top so
/// 64-bit values always land somewhere. Bucket counts merge across threads
/// by summation, so the merged histogram — and every percentile derived
/// from it — is deterministic for a deterministic observation multiset.
constexpr std::size_t kTimerBuckets = 64;

std::size_t bucket_index(std::uint64_t elapsed_ns) {
  return std::min<std::size_t>(std::bit_width(elapsed_ns), kTimerBuckets - 1);
}

/// Inclusive upper bound of bucket `b` in nanoseconds: the value every
/// percentile reports, making the exported columns exact small integers.
double bucket_upper_bound(std::size_t b) {
  return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b)) - 1.0;
}

/// One metric's thread-local accumulation. Counters and timers keep their
/// totals in integers (no precision loss at any count); gauges accumulate
/// doubles. Merging across threads is summation / min / max throughout, so
/// the merged value is independent of the merge order up to the (timing-
/// dependent anyway) double sums of gauges.
struct MetricCell {
  char kind = 'c';  ///< 'c'ounter, 'g'auge, 't'imer
  std::uint64_t observations = 0;
  std::uint64_t total_int = 0;  ///< counter deltas / timer nanoseconds
  double total_real = 0.0;      ///< gauge sum
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  /// log2 histogram of timer observations; sized lazily on the first timer
  /// observation so counter/gauge cells stay small.
  std::vector<std::uint64_t> buckets;

  void observe_duration(std::uint64_t elapsed_ns) {
    if (buckets.empty()) {
      buckets.resize(kTimerBuckets, 0);
    }
    buckets[bucket_index(elapsed_ns)] += 1;
  }

  void merge(const MetricCell& other) {
    observations += other.observations;
    total_int += other.total_int;
    total_real += other.total_real;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    if (!other.buckets.empty()) {
      if (buckets.empty()) {
        buckets.resize(kTimerBuckets, 0);
      }
      for (std::size_t b = 0; b < kTimerBuckets; ++b) {
        buckets[b] += other.buckets[b];
      }
    }
  }

  /// Upper bound of the bucket holding the q-quantile observation
  /// (0 < q <= 1), by cumulative walk over the merged histogram.
  double percentile(double q) const {
    const std::uint64_t rank =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                       std::ceil(q * static_cast<double>(observations))));
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      cumulative += buckets[b];
      if (cumulative >= rank) {
        return bucket_upper_bound(b);
      }
    }
    return bucket_upper_bound(kTimerBuckets - 1);
  }
};

struct TraceEvent {
  char ph = 'X';  ///< 'X' complete span, 'i' instant, 'C' counter sample
  std::string name;
  std::string detail;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;        ///< 'X' only
  std::uint32_t depth = 0;        ///< 'X' only
  double value = 0.0;             ///< 'C' only
  std::uint64_t index = 0;        ///< 'C' only (e.g. solver iteration)
};

/// Everything one thread records. The owning thread appends under its own
/// mutex — uncontended in steady state (the exporter only takes it at
/// export/reset time), so accumulation never crosses a cache line with
/// another recording thread.
struct ThreadState {
  std::mutex mutex;
  std::uint32_t tid = 0;
  std::string label;
  // std::map keeps per-thread metrics name-ordered from the start, so the
  // merged export order never depends on hash seeds or insertion order.
  std::map<std::string, MetricCell> metrics;
  std::vector<TraceEvent> events;
  std::uint32_t span_depth = 0;
};

struct Registry {
  std::mutex mutex;
  /// Registration order; states outlive their threads (shared_ptr also held
  /// thread-locally), so a pool destroyed mid-run loses no data.
  std::vector<std::shared_ptr<ThreadState>> states;
  /// Runtime manifest entries (set_manifest); merged over the build-time
  /// constants at export time. std::map keeps the export key-ordered.
  std::map<std::string, std::string> manifest;
};

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: usable during exit
  return *instance;
}

ThreadState& thread_state() {
  thread_local std::shared_ptr<ThreadState> state = [] {
    auto s = std::make_shared<ThreadState>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    s->tid = static_cast<std::uint32_t>(reg.states.size() + 1);
    std::ostringstream label;
    label << "thread-" << s->tid;
    s->label = s->tid == 1 ? "main" : label.str();
    reg.states.push_back(s);
    return s;
  }();
  return *state;
}

/// The standard catalog (see telemetry.hpp). Kind letters as in MetricCell.
const std::vector<std::pair<std::string, std::string>>& catalog() {
  static const std::vector<std::pair<std::string, std::string>> entries = {
      {"batch.cache.hits", "counter"},
      {"batch.cache.misses", "counter"},
      {"batch.cache.thermal_solves", "counter"},
      {"batch.scenario.wall", "timer"},
      {"batch.scenarios", "counter"},
      {"checkpoint.pauses", "counter"},
      {"checkpoint.resumes", "counter"},
      {"playback.dt_growths", "counter"},
      {"playback.scenario.wall", "timer"},
      {"playback.scenarios", "counter"},
      {"playback.steps", "counter"},
      {"pool.queue_wait", "timer"},
      {"precond.ilu0.applies", "counter"},
      {"precond.ilu0.builds", "counter"},
      {"solver.conjugate_gradient.iterations", "counter"},
      {"solver.conjugate_gradient.relative_residual", "gauge"},
      {"solver.conjugate_gradient.solves", "counter"},
      {"spmv.csr", "counter"},
      {"transient.preconditioner_builds", "counter"},
      {"transient.reassemblies", "counter"},
      {"transient.steps", "counter"},
  };
  return entries;
}

char kind_letter(const std::string& kind_name) {
  return kind_name == "timer" ? 't' : kind_name == "gauge" ? 'g' : 'c';
}

const char* kind_name(char kind) {
  switch (kind) {
    case 'g':
      return "gauge";
    case 't':
      return "timer";
    default:
      return "counter";
  }
}

/// Seed the catalog into the calling thread's state so every standard
/// metric exports a row even at zero.
void seed_catalog() {
  ThreadState& state = thread_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  for (const auto& [name, kind] : catalog()) {
    state.metrics[name].kind = kind_letter(kind);
  }
}

MetricCell& cell(ThreadState& state, const std::string& name, char kind) {
  MetricCell& c = state.metrics[name];
  c.kind = kind;
  return c;
}

/// JSON string escaping (RFC 8259): quotes, backslashes and control
/// characters; everything else passes through byte-for-byte.
std::string json_escape(const std::string& s) {
  std::ostringstream os;
  for (unsigned char ch : s) {
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (ch < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[ch >> 4] << hex[ch & 0xf];
        } else {
          os << static_cast<char>(ch);
        }
    }
  }
  return os.str();
}

/// Compiler identity for the build-time manifest entries, from predefined
/// macros so it always matches the binary doing the recording.
const char* compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// Build-time manifest constants; runtime entries from set_manifest overlay
/// these at export time.
const std::map<std::string, std::string>& builtin_manifest() {
  static const std::map<std::string, std::string> entries = {
      {"build_type", PHOTHERM_BUILD_TYPE},
      {"compiler", compiler_id()},
      {"git_sha", PHOTHERM_GIT_SHA},
      {"sanitizer", PHOTHERM_SANITIZE_NAME},
  };
  return entries;
}

/// Trace timestamps are Chrome-format microseconds; format_shortest keeps
/// them exact (integer nanoseconds / 1000 is exact in double far beyond any
/// session length) without the lint-banned setprecision machinery.
std::string format_us(std::int64_t ns) { return format_shortest(static_cast<double>(ns) / 1e3); }

}  // namespace

namespace detail {

std::int64_t now_ns() {
  // The single clock read in src/ (photherm_lint determinism allowlist):
  // monotonic, process-local epoch, used for trace/metric timing only —
  // never fed back into numerical state.
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch)
      .count();
}

void count_slow(const std::string& name, std::uint64_t delta) {
  ThreadState& state = thread_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  MetricCell& c = cell(state, name, 'c');
  c.observations += 1;
  c.total_int += delta;
}

void gauge_slow(const std::string& name, double value) {
  ThreadState& state = thread_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  MetricCell& c = cell(state, name, 'g');
  c.observations += 1;
  c.total_real += value;
  c.min = std::min(c.min, value);
  c.max = std::max(c.max, value);
}

void timer_slow(const std::string& name, std::uint64_t elapsed_ns) {
  ThreadState& state = thread_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  MetricCell& c = cell(state, name, 't');
  c.observations += 1;
  c.total_int += elapsed_ns;
  c.min = std::min(c.min, static_cast<double>(elapsed_ns));
  c.max = std::max(c.max, static_cast<double>(elapsed_ns));
  c.observe_duration(elapsed_ns);
}

void instant_slow(const std::string& name) {
  const std::int64_t now = now_ns();
  ThreadState& state = thread_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  MetricCell& c = cell(state, name, 'c');
  c.observations += 1;
  c.total_int += 1;
  TraceEvent event;
  event.ph = 'i';
  event.name = name;
  event.ts_ns = now;
  event.depth = state.span_depth;
  state.events.push_back(std::move(event));
}

void counter_slow(const char* name, double value, std::uint64_t index) {
  const std::int64_t now = now_ns();
  ThreadState& state = thread_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  TraceEvent event;
  event.ph = 'C';
  event.name = name;
  event.ts_ns = now;
  event.value = value;
  event.index = index;
  state.events.push_back(std::move(event));
}

}  // namespace detail

void set_enabled(bool on) {
  if (on) {
    seed_catalog();
  }
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  // Registering this thread first keeps the lock order one-way: the
  // registry lock below is never held while thread_state() wants it.
  thread_state();
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> reg_lock(reg.mutex);
    for (const auto& state : reg.states) {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->metrics.clear();
      state->events.clear();
      state->span_depth = 0;
    }
    reg.manifest.clear();
  }
  if (enabled()) {
    // Keep the stable CSV shape for the next measurement window.
    seed_catalog();
  }
}

void set_thread_label(const std::string& label) {
  ThreadState& state = thread_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.label = label;
}

void set_manifest(const std::string& key, const std::string& value) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.manifest[key] = value;
}

std::vector<std::pair<std::string, std::string>> manifest() {
  std::map<std::string, std::string> merged = builtin_manifest();
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& [key, value] : reg.manifest) {
      merged[key] = value;
    }
  }
  return {merged.begin(), merged.end()};
}

void Span::begin(const char* name, std::string detail_text) {
  name_ = name;
  detail_ = std::move(detail_text);
  ThreadState& state = thread_state();
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.span_depth += 1;
  }
  // The clock read comes last so the span's own bookkeeping is outside the
  // measured interval.
  start_ns_ = detail::now_ns();
}

void Span::end() {
  const std::int64_t end_ns = detail::now_ns();
  ThreadState& state = thread_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.span_depth = state.span_depth > 0 ? state.span_depth - 1 : 0;
  TraceEvent event;
  event.name = name_;
  event.detail = std::move(detail_);
  event.ts_ns = start_ns_;
  event.dur_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  event.depth = state.span_depth;
  state.events.push_back(std::move(event));
}

const std::vector<std::pair<std::string, std::string>>& metric_catalog() { return catalog(); }

Table metrics_table() {
  // Merge thread blocks in registration order into a name-ordered map; the
  // row order of the exported CSV is the lexicographic metric name order,
  // independent of which threads recorded what when.
  std::map<std::string, MetricCell> merged;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> reg_lock(reg.mutex);
    for (const auto& state : reg.states) {
      std::lock_guard<std::mutex> lock(state->mutex);
      for (const auto& [name, c] : state->metrics) {
        auto [it, fresh] = merged.try_emplace(name, c);
        if (!fresh) {
          it->second.merge(c);
        }
      }
    }
  }

  Table table({"metric", "kind", "count", "total", "min", "max", "p50", "p90", "p99"});
  table.set_exact();
  for (const auto& [name, c] : merged) {
    std::vector<TableCell> row{name, std::string(kind_name(c.kind)),
                               static_cast<double>(c.observations)};
    row.emplace_back(c.kind == 'g' ? c.total_real : static_cast<double>(c.total_int));
    if (c.observations > 0 && c.kind != 'c') {
      row.emplace_back(c.min);
      row.emplace_back(c.max);
    } else {
      row.emplace_back(std::string());
      row.emplace_back(std::string());
    }
    if (c.kind == 't' && c.observations > 0 && !c.buckets.empty()) {
      row.emplace_back(c.percentile(0.50));
      row.emplace_back(c.percentile(0.90));
      row.emplace_back(c.percentile(0.99));
    } else {
      row.emplace_back(std::string());
      row.emplace_back(std::string());
      row.emplace_back(std::string());
    }
    table.add_row(std::move(row));
  }
  return table;
}

std::string metrics_csv() {
  std::ostringstream os;
  os << "# photherm-manifest v1\n";
  for (const auto& [key, value] : manifest()) {
    os << "# " << key << "=" << value << "\n";
  }
  os << metrics_table().to_csv();
  return os.str();
}

std::string trace_json() {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"manifest\":{";
  {
    bool first_entry = true;
    for (const auto& [key, value] : manifest()) {
      os << (first_entry ? "" : ",") << "\"" << json_escape(key) << "\":\"" << json_escape(value)
         << "\"";
      first_entry = false;
    }
  }
  os << "},\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event_json) {
    os << (first ? "\n " : ",\n ") << event_json;
    first = false;
  };
  emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":1,"
       "\"args\":{\"name\":\"photherm\"}}");

  Registry& reg = registry();
  std::lock_guard<std::mutex> reg_lock(reg.mutex);
  for (const auto& state : reg.states) {
    std::lock_guard<std::mutex> lock(state->mutex);
    {
      std::ostringstream event;
      event << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << state->tid
            << ",\"args\":{\"name\":\"" << json_escape(state->label) << "\"}}";
      emit(event.str());
    }
    for (const TraceEvent& e : state->events) {
      std::ostringstream event;
      if (e.ph == 'i') {
        event << "{\"ph\":\"i\",\"name\":\"" << json_escape(e.name) << "\",\"pid\":1,\"tid\":"
              << state->tid << ",\"ts\":" << format_us(e.ts_ns) << ",\"s\":\"t\"}";
      } else if (e.ph == 'C') {
        event << "{\"ph\":\"C\",\"name\":\"" << json_escape(e.name) << "\",\"pid\":1,\"tid\":"
              << state->tid << ",\"ts\":" << format_us(e.ts_ns)
              << ",\"args\":{\"value\":" << format_shortest(e.value)
              << ",\"iteration\":" << e.index << "}}";
      } else {
        event << "{\"ph\":\"X\",\"name\":\"" << json_escape(e.name) << "\",\"pid\":1,\"tid\":"
              << state->tid << ",\"ts\":" << format_us(e.ts_ns)
              << ",\"dur\":" << format_us(e.dur_ns) << ",\"args\":{\"depth\":" << e.depth;
        if (!e.detail.empty()) {
          event << ",\"detail\":\"" << json_escape(e.detail) << "\"";
        }
        event << "}}";
      }
      emit(event.str());
    }
  }
  os << "\n]}\n";
  return os.str();
}

void write_metrics_csv(const std::string& path) {
  write_text_file(path, metrics_csv(), "metrics CSV");
}

void write_trace_json(const std::string& path) {
  write_text_file(path, trace_json(), "trace JSON");
}

}  // namespace photherm::telemetry
