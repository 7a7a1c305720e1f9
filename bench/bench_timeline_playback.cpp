/// Timeline playback throughput and its cost levers:
///
///  - warm-started stepping: play the builtin transient suite over a fixed
///    horizon (each per-step CG solve is seeded from the previous state)
///    and report steps/sec and CG iterations per step;
///  - the adaptive-dt payoff: play the settle-bound builtin soak suite
///    until settle on the fixed grid and with adaptive stepping, and
///    report linear solves (steps), total CG iterations, steps/sec and
///    the matrix reassemblies the growth cost.
///
/// `--benchmark_format=json` swaps the human tables for Google-Benchmark-
/// shaped JSON (a `context` object and a `benchmarks` array with per-run
/// counters), so the CI perf-artifact job can collect this plain binary
/// alongside the real gbench ones.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "timeline/runner.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

using namespace photherm;

namespace {

struct Run {
  timeline::TimelineBatchResult result;
  double seconds = 0.0;
};

Run play(const std::vector<scenario::ScenarioSpec>& suite,
         const timeline::PlaybackOptions& playback) {
  timeline::TimelineBatchOptions options;
  options.playback = playback;
  const auto start = std::chrono::steady_clock::now();
  Run run;
  run.result = timeline::TimelineRunner(options).run(suite);
  run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return run;
}

void add_row(Table& table, const char* mode, const Run& run) {
  const double steps = static_cast<double>(run.result.stats.total_steps);
  const double iters = static_cast<double>(run.result.stats.total_cg_iterations);
  table.add_row({std::string(mode), steps, iters, iters / steps, steps / run.seconds});
}

/// One entry of the gbench-shaped `benchmarks` array: wall time plus the
/// playback counters as user counters, mirroring what google-benchmark
/// emits for a counter-carrying run.
void emit_json_benchmark(std::ostream& os, const char* name, const Run& run, bool last) {
  const double steps = static_cast<double>(run.result.stats.total_steps);
  const double iters = static_cast<double>(run.result.stats.total_cg_iterations);
  os << "    {\n"
     << "      \"name\": \"" << name << "\",\n"
     << "      \"run_name\": \"" << name << "\",\n"
     << "      \"run_type\": \"iteration\",\n"
     << "      \"repetitions\": 1,\n"
     << "      \"iterations\": 1,\n"
     << "      \"real_time\": " << format_shortest(run.seconds) << ",\n"
     << "      \"cpu_time\": " << format_shortest(run.seconds) << ",\n"
     << "      \"time_unit\": \"s\",\n"
     << "      \"steps\": " << format_shortest(steps) << ",\n"
     << "      \"cg_iterations\": " << format_shortest(iters) << ",\n"
     << "      \"iters_per_step\": " << format_shortest(iters / steps) << ",\n"
     << "      \"steps_per_second\": " << format_shortest(steps / run.seconds) << "\n"
     << "    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--benchmark_format=json") {
      json = true;
    } else {
      std::cerr << "bench_timeline_playback: unknown option `" << argv[i]
                << "` (supported: --benchmark_format=json)\n";
      return 2;
    }
  }

  const std::vector<scenario::ScenarioSpec> suite = scenario::builtin_suite("transient");

  timeline::PlaybackOptions fixed_horizon;
  fixed_horizon.time_step = 0.2;
  fixed_horizon.max_periods = 60;
  fixed_horizon.stop_on_settle = false;  // a schedule-determined step count

  const Run warm = play(suite, fixed_horizon);

  // Settle-bound horizon: the adaptive scheme grows the step while the
  // field crawls, so the same settled field costs a small, horizon-
  // independent number of linear solves (one per step).
  const std::vector<scenario::ScenarioSpec> soak = scenario::builtin_suite("soak");
  timeline::PlaybackOptions until_settle;
  until_settle.time_step = 0.2;
  until_settle.stop_on_settle = true;
  timeline::PlaybackOptions adaptive = until_settle;
  adaptive.adaptive = true;

  const Run fixed_run = play(soak, until_settle);
  const Run adaptive_run = play(soak, adaptive);

  if (json) {
    // photherm_build_type is the build type of *this* binary (what
    // photherm_report's diff uses to refuse debug-vs-release comparisons),
    // as opposed to gbench's library_build_type which reports the library's
    // own build.
    std::cout << "{\n  \"context\": {\n"
              << "    \"executable\": \"bench_timeline_playback\",\n"
#ifdef NDEBUG
              << "    \"photherm_build_type\": \"release\"\n"
#else
              << "    \"photherm_build_type\": \"debug\"\n"
#endif
              << "  },\n  \"benchmarks\": [\n";
    emit_json_benchmark(std::cout, "timeline_playback/transient_warm_start", warm, false);
    emit_json_benchmark(std::cout, "timeline_playback/soak_fixed_dt", fixed_run, false);
    emit_json_benchmark(std::cout, "timeline_playback/soak_adaptive_dt", adaptive_run, true);
    std::cout << "  ]\n}\n";
    return 0;
  }

  Table table({"mode", "steps", "CG iterations", "iters/step", "steps/sec"});
  add_row(table, "warm start", warm);
  print_table(std::cout, "timeline playback (builtin:transient, fixed 60-period horizon)", table);

  Table soak_table({"mode", "steps", "CG iterations", "iters/step", "steps/sec"});
  add_row(soak_table, "fixed dt", fixed_run);
  add_row(soak_table, "adaptive dt", adaptive_run);
  print_table(std::cout, "settle-bound playback (builtin:soak, play until settle)", soak_table);

  std::size_t reassemblies = 0;
  for (const timeline::TimelineTrace& trace : adaptive_run.result.traces) {
    reassemblies += trace.stats.reassemblies;
  }
  const double solve_ratio = static_cast<double>(fixed_run.result.stats.total_steps) /
                             static_cast<double>(adaptive_run.result.stats.total_steps);
  const double iter_ratio =
      static_cast<double>(fixed_run.result.stats.total_cg_iterations) /
      static_cast<double>(adaptive_run.result.stats.total_cg_iterations);
  std::cout << "adaptive dt reaches the same settled field with " << solve_ratio
            << "x fewer linear solves (" << iter_ratio << "x fewer CG iterations), "
            << "paying " << reassemblies << " stepping-matrix reassemblies for the growth\n";

  Table summary = timeline::timeline_summary_table(adaptive_run.result);
  summary.set_precision(6);
  print_table(std::cout, "per-scenario trace summary (adaptive)", summary);
  return 0;
}
