/// \file playback.hpp
/// \brief Transient playback of one scenario: compile its schedule into a
/// PowerTimeline, build the package-scale scene (the same one the
/// steady-state pipeline's coarse pass solves) and step the backward-Euler
/// TransientSolver through it with warm-started CG. Every step samples a
/// ProbeSet into a TimelineTrace; a settle detector compares the evolving
/// field against the duty-averaged steady-state solution so time-to-steady
/// (the calibration latency of Sec. II) is a first-class output.
///
/// Power handling: the scenario's schedule modulates only the chip activity
/// (the tile heat sources), exactly like the steady-state duty fold in
/// ScenarioSpec::effective_design — the ONI device powers (VCSELs, drivers,
/// MR heaters) are run-time constants. The per-cell split is derived by
/// meshing the scene twice (once as specified, once with chip_power = 0 —
/// identical grids, power differs only by the tile contribution), and phase
/// changes swap rhs power vectors without reassembling the stepping matrix.
///
/// Beyond the plain fixed-grid playback (play_scenario), the Playback class
/// exposes three mechanisms for long horizons:
///
///  - **Adaptive time stepping** (PlaybackOptions::adaptive): when the
///    field is crawling — the per-step state change has fallen below a
///    threshold — the step size doubles, up to 64x the base step,
///    re-assembling the stepping matrix only on each change and
///    re-quantizing the remaining schedule on the new grid (bounded by
///    max_period_error; a constant-scale schedule is free to grow without a
///    period constraint). Backward Euler is L-stable, so the settled field is
///    independent of the step size — growth trades time resolution while
///    crawling for orders of magnitude fewer linear solves.
///  - **Periodic-steady-state detection**: for genuinely oscillating
///    schedules (two or more distinct scales) the field is compared
///    cycle-over-cycle — max delta between corresponding steps of
///    consecutive periods — so a bursty playback terminates when its cycle
///    repeats, even though its ripple never matches the duty-averaged
///    steady reference. Constant schedules (ramps) are exempt: their
///    per-step delta shrinking is not evidence of a repeating cycle.
///  - **Checkpoint/restore**: checkpoint() captures the complete playback
///    state (solver field and clock, trace prefix, settle/periodic/adaptive
///    detector state); resuming from it continues bit-identically to an
///    uninterrupted run (timeline/checkpoint.hpp serializes the state to a
///    round-trippable text file for the CLI).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "thermal/transient.hpp"
#include "timeline/probe.hpp"
#include "timeline/timeline.hpp"

namespace photherm::timeline {

/// Consecutive periods the cycle-over-cycle delta must stay below
/// PlaybackOptions::settle_tolerance before periodic steady state latches.
inline constexpr std::size_t kPeriodicHoldPeriods = 2;

struct PlaybackOptions {
  double time_step = 0.05;  ///< [s]
  /// Horizon cap: the playback covers at most this many periods of the
  /// initially compiled timeline (adaptive growth shortens the step count,
  /// never the simulated horizon). With stop_on_settle the playback usually
  /// ends earlier; without it the horizon is exact, so the trace shape is
  /// schedule-determined (what the golden-CSV smoke test relies on).
  std::size_t max_periods = 400;
  /// Settle criterion: max |T - T_steady| over all cells below this [degC]
  /// for one full timeline period, where T_steady is the steady solution at
  /// the timeline's duty-averaged power on the same mesh. The full-period
  /// hold keeps an oscillating schedule that merely crosses the reference
  /// from latching a false settle. Must sit well above the steady
  /// reference's own solver noise; play_scenario tightens the reference
  /// solve when it does not (and refuses tolerances no solve can resolve).
  double settle_tolerance = 0.02;
  /// Stop stepping once steady (after recording the detection step) — via
  /// the settle criterion above or, for oscillating schedules, the
  /// cycle-over-cycle periodic-steady criterion.
  bool stop_on_settle = true;
  /// Solver knobs for both the per-step solves and the steady reference.
  /// Defaults to TransientOptions' tolerances.
  math::SolverOptions solver = thermal::TransientOptions{}.solver;

  /// Grow the time step while the field crawls (see file comment): when
  /// one step moves the field by less than settle_tolerance / 4, or by
  /// less than half the remaining distance to the steady reference (which
  /// keeps the approach geometric). Off by default: the fixed grid is what
  /// golden traces and time-resolution studies want.
  bool adaptive = false;

  /// Relative period-error bound handed to compile_timeline, and the bound
  /// adaptive growth must respect when re-quantizing a multi-scale
  /// schedule onto a coarser grid.
  double max_period_error = kDefaultMaxPeriodError;

  /// Heartbeat for long soaks: every N steps, log one stable
  /// `event=playback_progress` key=value line (scenario, step, sim time,
  /// dt, max delta vs the steady reference) at info level via util::log.
  /// 0 (the default) disables the heartbeat; it never touches the trace or
  /// the physics (`photherm_cli play --progress N`).
  std::size_t progress_every = 0;
};

/// Time series of one playback, index-aligned across its vectors: entry k
/// describes step k (sampled at the *end* of the step, time (k+1) * dt).
struct TimelineTrace {
  std::string scenario;
  std::vector<std::string> probe_names;

  std::vector<double> times;                 ///< [s], end-of-step
  std::vector<double> power_scale;           ///< schedule scale during the step
  std::vector<std::size_t> cg_iterations;    ///< per-step CG cost
  std::vector<std::vector<double>> samples;  ///< [step][probe]

  /// Settle detection against the duty-averaged steady state.
  bool settled = false;
  /// [s]; start of the first full period over which the criterion held.
  double settle_time = -1.0;
  std::size_t settle_step = 0;    ///< step index of settle_time
  double final_delta = 0.0;       ///< max |T - T_steady| at the last step

  /// Periodic-steady detection (oscillating schedules): the field repeats
  /// cycle over cycle within settle_tolerance for kPeriodicHoldPeriods.
  bool periodic_steady = false;
  double periodic_steady_time = -1.0;  ///< [s]; start of the first held period
  std::size_t periodic_steady_step = 0;
  /// Most recent completed cycle-over-cycle delta [degC] (0 until a full
  /// period pair has been compared, or when detection is inactive).
  double cycle_delta = 0.0;

  double period = 0.0;            ///< compiled timeline period [s] (initial grid)
  double final_time_step = 0.0;   ///< step size at the end (adaptive growth)
  std::size_t dt_growths = 0;     ///< adaptive step-size changes
  /// Relative CG tolerance the steady settle reference was solved at —
  /// options.solver's unless the settle/solver tolerance guard tightened it.
  double reference_tolerance = 0.0;
  thermal::TransientStats stats;  ///< cumulative stepping cost

  std::size_t step_count() const { return times.size(); }
};

/// Complete state of a paused playback. Everything a Playback needs to
/// continue bit-identically: the solver field and clock, the position on
/// the (possibly regrown) step grid, the settle/periodic/adaptive detector
/// state and the trace recorded so far. Serialized to a round-trippable
/// text format by timeline/checkpoint.hpp.
struct PlaybackCheckpoint {
  std::string scenario;
  double base_time_step = 0.0;     ///< PlaybackOptions::time_step echo
  double current_time_step = 0.0;  ///< step size at the pause (adaptive)
  double time = 0.0;               ///< solver clock [s]
  std::size_t step_in_period = 0;  ///< next step's offset in the current period
  double last_step_delta = 0.0;    ///< adaptive criterion input at the pause
  std::size_t in_tolerance_run = 0;
  std::size_t cycle_count = 0;     ///< steps since the last periodic reset
  std::size_t cycle_hold = 0;      ///< consecutive steady periods so far
  double cycle_max_delta = 0.0;    ///< running max within the open period
  math::Vector state;              ///< solver field at the pause
  /// Rolling previous-period fields (slot order); min(cycle_count,
  /// steps-per-period) slots are filled.
  std::vector<math::Vector> cycle_buffer;
  TimelineTrace trace;             ///< trace prefix, including stats
};

/// One resumable playback. play_scenario is the one-shot wrapper; this
/// class exists so a long playback can pause (checkpoint) and continue in a
/// later process bit-identically.
class Playback {
 public:
  static constexpr std::size_t kRunToCompletion = static_cast<std::size_t>(-1);

  /// Start a fresh playback. Throws SpecError on an invalid design or a
  /// schedule that does not fit the step grid.
  Playback(const scenario::ScenarioSpec& spec, const PlaybackOptions& options);

  /// Resume from a checkpoint. `spec` and `options` must be the ones the
  /// checkpoint was taken under (validated: scenario name, base step,
  /// field/probe shapes); the continuation is bit-identical to a run that
  /// never paused.
  Playback(const scenario::ScenarioSpec& spec, const PlaybackOptions& options,
           const PlaybackCheckpoint& checkpoint);

  /// Advance at most `max_steps` further steps (default: until a stop
  /// condition). Returns the number of steps actually taken.
  std::size_t run(std::size_t max_steps = kRunToCompletion);

  /// True once a stop condition latched: steady (settle or periodic, with
  /// stop_on_settle) or the horizon is exhausted.
  bool finished() const { return finished_; }

  /// Capture the complete current state (callable at any point).
  PlaybackCheckpoint checkpoint() const;

  const TimelineTrace& trace() const { return trace_; }
  TimelineTrace take_trace() { return std::move(trace_); }

 private:
  /// The setup both constructors share (scene, solver at step `dt`, trace
  /// header, steady reference); returns the base grid.
  PowerTimeline start(const scenario::ScenarioSpec& spec, double dt);
  void build_scene(const scenario::ScenarioSpec& spec);
  void solve_steady_reference(const PowerTimeline& base_timeline);
  void adopt_timeline(PowerTimeline timeline);
  /// The grid at step `dt` (above the base step): one one-step segment for a
  /// constant-scale schedule, else the schedule re-quantized onto `dt`;
  /// nullopt when that misses the period-error bound.
  std::optional<PowerTimeline> grown_timeline(double dt) const;
  void maybe_grow_dt();
  void step_once();
  void update_periodic(const math::Vector& temperatures);

  PlaybackOptions options_;
  std::vector<power::ActivityPhase> schedule_;
  bool constant_scale_ = false;  ///< every phase plays the same scale

  std::shared_ptr<const mesh::RectilinearMesh> mesh_;
  thermal::BoundarySet boundary_set_;
  std::optional<thermal::TransientSolver> solver_;
  std::optional<BoundProbeSet> probes_;
  math::Vector base_power_;       ///< constant (ONI device) injection
  math::Vector modulated_power_;  ///< schedule-scaled (tile) injection
  math::Vector steady_reference_;

  PowerTimeline timeline_;                  ///< current grid
  std::vector<math::Vector> segment_power_; ///< per-segment rhs power
  std::size_t current_segment_ = static_cast<std::size_t>(-1);
  double dt_ = 0.0;
  double horizon_time_ = 0.0;  ///< max_periods * initial period [s]

  std::size_t step_in_period_ = 0;
  std::size_t in_tolerance_run_ = 0;
  double last_step_delta_ = 0.0;
  math::Vector previous_state_;  ///< adaptive-criterion scratch

  bool periodic_enabled_ = false;
  std::vector<math::Vector> cycle_buffer_;
  std::size_t cycle_count_ = 0;
  std::size_t cycle_hold_ = 0;
  double cycle_max_delta_ = 0.0;

  thermal::TransientStats stats_offset_;  ///< pre-resume cost
  bool finished_ = false;
  TimelineTrace trace_;
};

/// Play one scenario to completion. Deterministic: the trace depends only
/// on the scenario and the options, never on thread counts (the solver
/// kernels are bit-identical at any concurrency — thread_pool.hpp
/// contract). Throws SpecError on an invalid scenario design.
TimelineTrace play_scenario(const scenario::ScenarioSpec& spec,
                            const PlaybackOptions& options = {});

}  // namespace photherm::timeline
