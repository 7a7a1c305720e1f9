// perfbench_e2e — one run of the end-to-end design-flow benchmark.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR --reference-dir DIR --outputs-dir DIR
//   perfbench_e2e --self-check --reference-dir DIR
//   perfbench_e2e --write-reference --workload NAME --seed 0 --work-dir DIR
//                 --reference-dir DIR
//
// A run generates the workload's scenario file from the seed, times the
// set-up (parse that file, start the pool at the budget), then runs a closed
// loop of units — one scenario::BatchRunner::run sweep or one
// timeline::TimelineRunner::run playback batch, each starting when the last
// returned — for about S seconds with telemetry off, checking every unit's
// outputs. With --trace 1 it then replays the same inputs layer by layer
// with spans on (replay.hpp), demands byte-identical outputs and writes the
// trace to DIR/trace.json. The last stdout line is one JSON object.
// run.py drives this binary; see perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gate.hpp"
#include "ledger.hpp"
#include "replay.hpp"
#include "scenario/batch_runner.hpp"
#include "suites.hpp"
#include "timeline/runner.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using photherm::scenario::ScenarioSpec;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string reference_dir;
  std::string outputs_dir;
  bool self_check = false;
  bool write_reference = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      PH_REQUIRE(i + 1 < argc, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = photherm::parse_uint(value(), "--seed");
    } else if (arg == "--seconds") {
      args.seconds = photherm::parse_double(value(), "--seconds");
    } else if (arg == "--trace") {
      args.trace = photherm::parse_uint(value(), "--trace") != 0;
    } else if (arg == "--work-dir") {
      args.work_dir = value();
    } else if (arg == "--reference-dir") {
      args.reference_dir = value();
    } else if (arg == "--outputs-dir") {
      args.outputs_dir = value();
    } else if (arg == "--self-check") {
      args.self_check = true;
    } else if (arg == "--write-reference") {
      args.write_reference = true;
    } else {
      throw photherm::Error("unknown argument `" + arg + "`");
    }
  }
  PH_REQUIRE(!args.reference_dir.empty(), "--reference-dir is required");
  return args;
}

/// One unit's outputs in the library's exact-mode CSV form.
struct UnitOutput {
  std::string csv;      ///< batch_table, or timeline_table + summary table
  std::string table;    ///< the part judged row by row against the reference
  double sim_seconds = 0.0;
  photherm::scenario::BatchStats batch;
};

UnitOutput render(const std::vector<ScenarioSpec>& scenarios,
                  const photherm::scenario::BatchResult& result) {
  UnitOutput out;
  out.csv = photherm::scenario::batch_table(scenarios, result).to_csv();
  out.table = out.csv;
  out.batch = result.stats;
  return out;
}

UnitOutput render(const photherm::timeline::TimelineBatchResult& result) {
  UnitOutput out;
  out.table = photherm::timeline::timeline_table(result).to_csv();
  out.csv = out.table + photherm::timeline::timeline_summary_table(result).to_csv();
  for (const photherm::timeline::TimelineTrace& trace : result.traces) {
    out.sim_seconds += trace.times.empty() ? 0.0 : trace.times.back();
  }
  return out;
}

/// Correctness ledger. Work is counted in items — design points or
/// playbacks — and every unit attempts each item once. An item fails a unit
/// when any check of that unit rejects it; it counts once, with the first
/// reason.
class Verdict {
 public:
  explicit Verdict(std::size_t items) : items_(items) {}

  void begin_unit() { units_.emplace_back(); }
  /// Record a failure of `item` in the current unit.
  void fail(std::size_t item, const std::string& reason) {
    units_.back().try_emplace(std::min(item, items_ - 1), reason);
  }
  void fail_all(const std::string& reason) {
    for (std::size_t i = 0; i < items_; ++i) {
      fail(i, reason);
    }
  }

  std::size_t attempted() const { return units_.size() * items_; }
  std::size_t failed() const {
    std::size_t n = 0;
    for (const auto& unit : units_) {
      n += unit.size();
    }
    return n;
  }
  std::vector<std::string> messages() const {
    std::vector<std::string> out;
    for (std::size_t u = 0; u < units_.size(); ++u) {
      for (const auto& [item, reason] : units_[u]) {
        out.push_back("unit " + std::to_string(u) + ", item " + std::to_string(item) + ": " +
                      reason);
      }
    }
    return out;
  }

 private:
  std::size_t items_;
  std::vector<std::map<std::size_t, std::string>> units_;
};

/// Item of data row `r` (0-based) of a unit's table: the row itself on
/// corners, the scenario named in its first cell on transient (an unknown
/// name maps past the end and is clamped by Verdict::fail).
std::size_t item_of_row(Kind kind, const Rows& rows, std::size_t r,
                        const std::vector<ScenarioSpec>& scenarios) {
  if (kind == Kind::kCorners || r + 1 >= rows.size()) {
    return r;
  }
  std::size_t item = 0;
  while (item < scenarios.size() && scenarios[item].name != rows[r + 1].front()) {
    ++item;
  }
  return item;
}

/// Fail the items whose rows differ byte for byte between two outputs.
void fail_differing(Kind kind, const UnitOutput& expected, const UnitOutput& actual,
                    const std::vector<ScenarioSpec>& scenarios, const std::string& reason,
                    Verdict& verdict) {
  const Rows rows = parse_csv(actual.table);
  for (std::size_t r : differing_rows(expected.table, actual.table)) {
    verdict.fail(item_of_row(kind, rows, r, scenarios), reason);
  }
  if (expected.csv != actual.csv && expected.table == actual.table) {
    verdict.fail_all(reason + " (summary table)");
  }
}

constexpr std::size_t kStepsPerPeriod = 20;  // 1 s schedule period / 0.05 s step

std::string reference_path(const Args& args, Kind kind) {
  return args.reference_dir + (kind == Kind::kCorners ? "/corners_seed0.csv"
                                                      : "/transient_seed0.csv");
}

/// The rows of a unit's table that the committed reference holds.
Rows reference_rows(Kind kind, const std::string& table) {
  Rows rows = parse_csv(table);
  return kind == Kind::kCorners ? rows : reference_timeline_rows(rows, kStepsPerPeriod);
}

/// Judge one unit's outputs: physical sanity and step counts always; a
/// repeat must equal the run's first unit byte for byte; the first unit of
/// seed 0 must match the committed reference.
void check_unit(const Args& args, Kind kind, const std::vector<ScenarioSpec>& scenarios,
                const UnitOutput& unit, const UnitOutput* first, Verdict& verdict) {
  const Rows rows = parse_csv(unit.table);
  if (rows.empty()) {
    verdict.fail_all("empty output");
    return;
  }
  std::vector<std::size_t> steps(scenarios.size(), 0);
  for (std::size_t r = 0; r + 1 < rows.size(); ++r) {
    const std::size_t item = item_of_row(kind, rows, r, scenarios);
    const std::vector<std::string>& row = rows[r + 1];
    std::string reason;
    if (kind == Kind::kCorners) {
      reason = check_design_row(rows.front(), row);
    } else if (item >= scenarios.size()) {
      reason = "row of an unknown scenario `" + row.front() + "`";
    } else {
      steps[item] += 1;
      reason = check_timeline_row(rows.front(), row, scenarios[item].design.package.t_ambient);
    }
    if (!reason.empty()) {
      verdict.fail(item, reason);
    }
  }
  if (kind == Kind::kCorners && rows.size() != scenarios.size() + 1) {
    verdict.fail_all("expected " + std::to_string(scenarios.size()) + " result rows");
  }
  if (kind == Kind::kTransient) {
    const std::size_t expected = playback_options().max_periods * kStepsPerPeriod;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      if (steps[i] != expected) {
        verdict.fail(i, std::to_string(steps[i]) + " steps, expected " +
                            std::to_string(expected));
      }
    }
  }

  if (first != nullptr) {
    fail_differing(kind, *first, unit, scenarios, "differs from the run's first unit", verdict);
    return;
  }
  if (args.seed != 0 || args.write_reference) {
    return;
  }
  const Rows reference = parse_csv(read_file(reference_path(args, kind)));
  const Rows candidate = reference_rows(kind, unit.table);
  if (reference.size() != candidate.size()) {
    verdict.fail_all("reference has " + std::to_string(reference.size()) + " rows, output " +
                     std::to_string(candidate.size()));
  }
  for (std::size_t r = 0; r + 1 < std::min(reference.size(), candidate.size()); ++r) {
    const std::string reason = compare_rows(reference[r + 1], candidate[r + 1],
                                            reference.front(), kReferenceTolerance);
    if (!reason.empty()) {
      verdict.fail(item_of_row(kind, candidate, r, scenarios), "reference: " + reason);
    }
  }
}

struct TimedRun {
  std::vector<double> setup_s;
  std::vector<double> unit_s;
  std::vector<double> rate;  ///< design points (or playbacks) per second, per unit
  std::vector<double> sim_rate;
  double cpu_per_wall = 0.0;
  std::optional<UnitOutput> first;
};

/// Set-up as a user pays it before the first unit: parse the generated
/// scenario file and start a pool at the budget. Repeated and reported as
/// a median; the last parse is the one the loop runs.
std::vector<ScenarioSpec> timed_setup(const std::string& path, std::size_t budget,
                                      TimedRun& run) {
  constexpr int kRepeats = 101;
  std::vector<ScenarioSpec> scenarios;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const Clock::time_point start = Clock::now();
    scenarios = photherm::scenario::load_scenario_file(path);
    std::optional<photherm::util::ThreadPool> pool;
    pool.emplace(budget - 1);
    run.setup_s.push_back(seconds_since(start));
  }
  photherm::util::ThreadPool::shared().ensure_size(budget - 1);
  return scenarios;
}

UnitOutput run_unit(const Workload& w, const std::vector<ScenarioSpec>& scenarios) {
  if (w.kind == Kind::kCorners) {
    photherm::scenario::BatchOptions options;
    options.threads = w.budget;
    return render(scenarios, photherm::scenario::BatchRunner(options).run(scenarios));
  }
  photherm::timeline::TimelineBatchOptions options;
  options.threads = w.budget;
  options.playback = playback_options();
  return render(photherm::timeline::TimelineRunner(options).run(scenarios));
}

/// Corners outputs must be byte-identical at every budget: keep this run's
/// table per seed and compare it with the other budget's, when a run of
/// the same build left one.
void check_across_budgets(const Args& args, const Workload& w, const std::string& table,
                          Verdict& verdict) {
  if (args.outputs_dir.empty()) {
    return;
  }
  const auto path = [&](std::size_t budget) {
    return args.outputs_dir + "/corners_seed" + std::to_string(args.seed) + "_b" +
           std::to_string(budget) + ".csv";
  };
  write_file(path(w.budget), table);
  const std::string other = path(w.budget == 1 ? 4 : 1);
  if (file_exists(other)) {
    for (std::size_t r : differing_rows(read_file(other), table)) {
      verdict.fail(r, "differs from the other budget's output for this seed");
    }
  }
}

/// Closed loop: the next unit starts when the last returned, until the
/// next one would end further past the deadline than stopping now.
void timed_loop(const Args& args, const Workload& w, const std::vector<ScenarioSpec>& scenarios,
                TimedRun& run, Verdict& verdict) {
  const Clock::time_point loop_start = Clock::now();
  const double cpu_start = cpu_seconds();
  double measured = 0.0;
  do {
    verdict.begin_unit();
    const Clock::time_point start = Clock::now();
    UnitOutput unit;
    try {
      unit = run_unit(w, scenarios);
    } catch (const std::exception& e) {
      verdict.fail_all(e.what());
      break;
    }
    const double wall = seconds_since(start);
    std::cerr << "perfbench: unit " << run.unit_s.size() << ": " << wall << " s\n";
    measured += wall;
    run.unit_s.push_back(wall);
    run.rate.push_back(static_cast<double>(scenarios.size()) / wall);
    run.sim_rate.push_back(unit.sim_seconds / wall);
    check_unit(args, w.kind, scenarios, unit, run.first ? &*run.first : nullptr, verdict);
    if (!run.first) {
      if (w.kind == Kind::kCorners) {
        check_across_budgets(args, w, unit.table, verdict);
      }
      run.first = std::move(unit);
    }
  } while (measured + run.unit_s.back() / 2.0 < args.seconds);
  run.cpu_per_wall = (cpu_seconds() - cpu_start) / seconds_since(loop_start);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Computed bytes of one ILU(0)-preconditioned CG iteration on a CSR
/// system, ignoring caches. Per nonzero, the SpMV and the two triangular
/// sweeps together stream 24 bytes (value + 32-bit column, twice). Per row
/// they stream two 8-byte row pointers plus 21 doubles: SpMV in/out (2),
/// ILU in/intermediate/out and the diagonal (5), three reductions (5), two
/// axpys and one xpby (9).
double cg_bytes_per_iteration(std::size_t cells, std::size_t nnz) {
  return 24.0 * static_cast<double>(nnz) + (2 * 8.0 + 21 * 8.0) * static_cast<double>(cells);
}

/// The traced replay and its ledger; fails points whose replay outputs
/// differ from the timed run's or whose fields do not balance energy.
std::vector<Metric> traced_replay(const Args& args, const Workload& w,
                                  const std::vector<ScenarioSpec>& scenarios,
                                  const TimedRun& timed, Verdict& verdict) {
  photherm::telemetry::reset();
  photherm::telemetry::set_manifest("command", "perfbench " + w.name);
  photherm::telemetry::set_manifest("threads", std::to_string(w.budget));
  photherm::telemetry::set_enabled(true);
  std::optional<CornersReplay> corners;
  std::optional<photherm::timeline::TimelineBatchResult> transient;
  UnitOutput replayed;
  double traced_wall = 0.0;
  if (w.kind == Kind::kCorners) {
    corners = replay_corners(scenarios, w.budget);
    traced_wall = corners->traced_seconds;
    replayed = render(scenarios, corners->result);
  } else {
    const Clock::time_point start = Clock::now();
    transient = replay_transient(scenarios, playback_options());
    traced_wall = seconds_since(start);
    replayed = render(*transient);
  }
  photherm::telemetry::set_enabled(false);

  // Fidelity guard: the replay must produce the timed run's exact bytes.
  verdict.begin_unit();
  fail_differing(w.kind, *timed.first, replayed, scenarios,
                 "replay output differs from the timed run's", verdict);
  if (corners) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      if (!(corners->point_imbalance[i] <= kEnergyTolerance)) {
        verdict.fail(i, "energy balance off by " + std::to_string(corners->point_imbalance[i]));
      }
    }
  }

  const std::vector<SpanEvent> spans = parse_trace(photherm::telemetry::trace_json());
  photherm::telemetry::write_trace_json(args.work_dir + "/trace.json");

  // Solver work: the replay's own records on corners; on transient the
  // solves run inside Playback, so counts come from the library's counters
  // and CG/preconditioner time from its solver spans.
  double cg_ms = total_ms(spans, "math.cg");
  double precond_ms = total_ms(spans, "math.precond_build");
  double solves = 0.0;
  double iterations = 0.0;
  double cell_iterations = 0.0;
  double bytes = 0.0;
  double precond_builds = 0.0;
  double global_cells = 0.0;
  double window_cells = 0.0;
  double windows = 0.0;
  if (corners) {
    for (const SolveRecord& s : corners->solves) {
      solves += 1.0;
      precond_builds += 1.0;
      iterations += static_cast<double>(s.iterations);
      cell_iterations += static_cast<double>(s.cells * s.iterations);
      bytes += cg_bytes_per_iteration(s.cells, s.nnz) * static_cast<double>(s.iterations);
      (s.window ? window_cells : global_cells) += static_cast<double>(s.cells);
      windows += s.window ? 1.0 : 0.0;
    }
    global_cells /= std::max(1.0, solves - windows);
    window_cells /= std::max(1.0, windows);
  } else {
    const std::string metrics = photherm::telemetry::metrics_csv();
    cg_ms = total_ms(spans, "solver.conjugate_gradient");
    precond_ms = total_ms(spans, "precond.build");
    solves = metrics_counter(metrics, "solver.conjugate_gradient.solves");
    iterations = metrics_counter(metrics, "solver.conjugate_gradient.iterations");
    precond_builds = static_cast<double>(durations_ms(spans, "precond.build").size());
    const SolveRecord size = transient_system_size(scenarios.front());
    global_cells = static_cast<double>(size.cells);
    cell_iterations = global_cells * iterations;
    bytes = cg_bytes_per_iteration(size.cells, size.nnz) * iterations;
  }
  const std::vector<double> points = durations_ms(spans, "core.point");
  const std::vector<double> steps = durations_ms(spans, "timeline.step");
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double untraced = median(timed.unit_s);

  return {
      {"math.cg_ms", cg_ms, "ms"},
      {"math.cg_iterations", iterations, "count"},
      {"math.cg_iters_per_solve", ratio(iterations, solves), "count"},
      {"math.cg_cell_iters_per_s", ratio(cell_iterations, cg_ms / 1e3), "1/s"},
      {"math.cg_bytes_per_iter", ratio(bytes, iterations), "B"},
      {"math.precond_build_ms", precond_ms, "ms"},
      {"math.precond_builds", precond_builds, "count"},
      {"mesh.build_ms", total_ms(spans, "mesh.build"), "ms"},
      {"mesh.global_cells", global_cells, "count"},
      {"mesh.window_cells", window_cells, "count"},
      {"thermal.assemble_ms", total_ms(spans, "thermal.assemble"), "ms"},
      {"thermal.window_solve_ms", total_ms(spans, "thermal.window_solve"), "ms"},
      {"thermal.field_query_ms", total_ms(spans, "thermal.field_query"), "ms"},
      {"soc.build_system_ms", total_ms(spans, "soc.build_system"), "ms"},
      {"core.scene_key_ms", total_ms(spans, "core.scene_key"), "ms"},
      {"core.point_ms.p50", percentile(points, 0.5), "ms"},
      {"core.point_ms.max", percentile(points, 1.0), "ms"},
      {"scenario.global_solves", static_cast<double>(timed.first->batch.global_solves),
       "count"},
      {"scenario.cache_hit_ratio",
       ratio(static_cast<double>(timed.first->batch.cache_hits),
             static_cast<double>(timed.first->batch.scenario_count)),
       "ratio"},
      {"noc.snr_ms", total_ms(spans, "noc.snr"), "ms"},
      {"timeline.setup_ms", total_ms(spans, "timeline.setup"), "ms"},
      {"timeline.step_ms.p50", percentile(steps, 0.5), "ms"},
      {"timeline.step_ms.p99", percentile(steps, 0.99), "ms"},
      {"timeline.steps", static_cast<double>(steps.size()), "count"},
      {"timeline.cg_iters_per_step",
       ratio(static_cast<double>(transient ? transient->stats.total_cg_iterations : 0),
             static_cast<double>(steps.size())),
       "count"},
      {"util.cpu_per_wall", timed.cpu_per_wall, "ratio"},
      {"trace.unattributed_ratio", unattributed_ratio(spans), "ratio"},
      {"trace.overhead_ratio", ratio(traced_wall, untraced), "ratio"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    out += (out.size() > 1 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

int run(const Args& args) {
  const Workload& w = find_workload(args.workload);
  PH_REQUIRE(!args.work_dir.empty(), "--work-dir is required");
  photherm::util::set_concurrency(w.budget);

  const std::string path = args.work_dir + "/suite.scn";
  photherm::scenario::save_scenario_file(path, generate_suite(w.kind, args.seed));

  TimedRun timed;
  const std::vector<ScenarioSpec> scenarios = timed_setup(path, w.budget, timed);
  Verdict verdict(scenarios.size());
  timed_loop(args, w, scenarios, timed, verdict);
  if (args.write_reference && timed.first) {
    std::string text;
    for (const auto& row : reference_rows(w.kind, timed.first->table)) {
      text += photherm::join(row, ",") + "\n";
    }
    write_file(reference_path(args, w.kind), text);
  }

  std::vector<Metric> metrics;
  if (args.trace && timed.first) {
    metrics = traced_replay(args, w, scenarios, timed, verdict);
  } else {
    metrics = {{"design_points_per_s", median(timed.rate), "1/s"},
               {"setup_s", median(timed.setup_s), "s"}};
  }
  const std::vector<Metric> extra{
      {"playback_sim_s_per_s", median(timed.sim_rate), "1/s"},
      {"fail_ratio",
       static_cast<double>(verdict.failed()) /
           static_cast<double>(std::max<std::size_t>(1, verdict.attempted())),
       "ratio"},
      {"units", static_cast<double>(timed.unit_s.size()), "count"},
  };
  for (const std::string& m : verdict.messages()) {
    std::cerr << "perfbench: FAIL " << m << "\n";
  }
  const bool correct = verdict.failed() == 0 && timed.first.has_value();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << verdict.attempted()
            << ", \"failed\": " << verdict.failed()
            << ", \"metrics\": " << json_metrics(metrics)
            << ", \"extra\": " << json_metrics(extra) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    photherm::set_log_level(photherm::LogLevel::kWarn);
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.self_check) {
      const std::vector<std::string> missed = perfbench::self_check(args.reference_dir);
      for (const std::string& gate : missed) {
        std::cerr << "perfbench self-check: the " << gate << " gate did not fire\n";
      }
      std::cout << "self-check: " << (missed.empty() ? "every gate fired" : "FAILED") << "\n";
      return missed.empty() ? 0 : 1;
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
