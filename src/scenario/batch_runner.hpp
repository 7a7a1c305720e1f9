/// \file batch_runner.hpp
/// \brief Cached batch execution of scenario lists. The thermal stages are
/// the steady-state engine core::evaluate_thermal_batch (one coarse solve
/// per distinct global scene, every ONI window of every distinct thermal
/// problem as one flat task list, one ThermalReport per thermal problem);
/// the batch adds spec validation, the per-scenario SNR analysis, its stats
/// and its `batch.*` counters. Scenarios that differ only in SNR knobs (WDM
/// channels, fanout, waveguides, technology) share the whole thermal report;
/// ones that differ only in the fine-window knobs still share the coarse
/// field. Reports are bit-identical for every thread count and with the
/// cache on or off.
#pragma once

#include <vector>

#include "core/methodology.hpp"
#include "scenario/scenario.hpp"

namespace photherm::scenario {

struct BatchOptions {
  /// Width of the batch: the concurrency budget of everything it runs
  /// (scenarios, their ONI windows, the solver kernels), which inherit it
  /// (util/thread_pool.hpp). 0 = util::concurrency(); 1 = one core.
  std::size_t threads = 0;
  /// Solve cache: share the coarse global ThermalField across scenarios
  /// with equal global scene keys and the whole ThermalReport across
  /// scenarios with equal thermal keys. Off makes every scenario its own
  /// group, so each solves its coarse field and windows cold (the built-in
  /// oracle of the cache); the reports are bit-identical either way.
  bool share_global_solves = true;
};

struct BatchStats {
  std::size_t scenario_count = 0;
  std::size_t global_solves = 0;  ///< coarse global solves actually performed
  std::size_t cache_hits = 0;     ///< scenarios served from a shared coarse field
  /// Distinct thermal problems solved (one ThermalReport each: a coarse
  /// field plus a fine window per ONI).
  std::size_t thermal_solves = 0;
};

struct BatchResult {
  /// Index-aligned with the input scenario list.
  std::vector<core::DesignReport> reports;
  BatchStats stats;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Evaluate every scenario (full methodology pipeline on its
  /// effective_design). Throws on an empty list or an invalid spec.
  BatchResult run(const std::vector<ScenarioSpec>& scenarios) const;

 private:
  BatchOptions options_;
};

/// Per-scenario summary rows — the CLI's CSV payload. Numeric cells carry
/// full precision, so the rendered CSV is bit-identical whenever the
/// reports are. SNR columns are empty for kAllTiles scenarios.
Table batch_table(const std::vector<ScenarioSpec>& scenarios, const BatchResult& result);

}  // namespace photherm::scenario
