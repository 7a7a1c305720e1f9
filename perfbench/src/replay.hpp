/// \file replay.hpp
/// \brief The traced replay: the same inputs as the timed run, driven layer
/// by layer through the library's public functions, with one trace span
/// (telemetry::Span, recorded only while telemetry is enabled) around each
/// call from this file. The replay mirrors what the timed entry points do
/// internally — scenario::BatchRunner::run (designers and scene keys, one
/// coarse solve per distinct scene, then the per-ONI windows and SNR of
/// every point) and timeline::TimelineRunner::run (one Playback per
/// scenario) — and returns the same result types, so the caller can demand
/// byte-identical outputs before trusting any per-layer number.
///
/// Span names are the layer metrics' names:
///   roots   core.prepare, core.global_solve, core.point, timeline.playback
///   parents thermal.window_solve
///   leaves  core.scene_key, soc.build_system, mesh.build, thermal.assemble,
///           math.precond_build, math.cg, thermal.field_query, noc.snr,
///           timeline.setup, timeline.step
#pragma once

#include <cstddef>
#include <vector>

#include "scenario/batch_runner.hpp"
#include "thermal/bc.hpp"
#include "thermal/thermal_map.hpp"
#include "timeline/runner.hpp"

namespace perfbench {

/// Relative energy-balance tolerance: |outflow - injected| / injected for a
/// steady field. The solves run at a 1e-10 relative residual, so a real
/// field balances far inside this; a field off by a fraction of a degree
/// does not.
inline constexpr double kEnergyTolerance = 1e-6;

/// |boundary_heat_flow - injected power| / injected power of a steady field.
double energy_imbalance(const photherm::thermal::ThermalField& field,
                        const photherm::thermal::BoundarySet& bcs);

/// Work done by one steady solve (counts; times come from the spans).
struct SolveRecord {
  std::size_t cells = 0;
  std::size_t nnz = 0;
  std::size_t iterations = 0;
  bool window = false;     ///< local ONI window (false: coarse package solve)
  double imbalance = 0.0;  ///< energy_imbalance of the solved field
};

struct CornersReplay {
  photherm::scenario::BatchResult result;  ///< what BatchRunner::run returns
  std::vector<SolveRecord> solves;
  /// Per point: the worst energy imbalance over its own windows and the
  /// coarse solve it used.
  std::vector<double> point_imbalance;
  /// Wall time of the traced work, without the energy-balance checks that
  /// follow it.
  double traced_seconds = 0.0;
};

/// Replay a design sweep at `budget` executors, exactly as
/// scenario::BatchRunner::run schedules it (coarse pass, then fine pass,
/// each a util::parallel_for over the budget).
CornersReplay replay_corners(const std::vector<photherm::scenario::ScenarioSpec>& scenarios,
                             std::size_t budget);

/// Replay transient playback serially, one Playback::run(1) per step.
photherm::timeline::TimelineBatchResult replay_transient(
    const std::vector<photherm::scenario::ScenarioSpec>& scenarios,
    const photherm::timeline::PlaybackOptions& options);

/// Cells and nonzeros of the playback's stepping operator (the coarse
/// package mesh of the scenario's design; C/dt + A shares A's pattern).
/// Computed outside any span — it sizes the computed-bytes metric only.
SolveRecord transient_system_size(const photherm::scenario::ScenarioSpec& scenario);

}  // namespace perfbench
