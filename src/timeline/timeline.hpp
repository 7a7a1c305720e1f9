/// \file timeline.hpp
/// \brief Compilation of a scenario's activity schedule into a
/// piecewise-constant power timeline the transient playback can step
/// through. The steady-state pipeline folds a schedule into one
/// duty-averaged power (ScenarioSpec::effective_design); the timeline
/// engine keeps it resolved in time instead: each phase becomes a segment
/// of whole backward-Euler steps at that phase's power scale, and the
/// segment list repeats periodically during playback.
#pragma once

#include <cstddef>
#include <vector>

#include "power/activity.hpp"

namespace photherm::timeline {

/// One run of consecutive steps at a constant power scale.
struct TimelineSegment {
  double scale = 1.0;      ///< multiplier on the scenario's modulated power
  std::size_t steps = 1;   ///< whole time steps spent at this scale
  /// The phase duration the schedule asked for [s]. `steps * time_step`
  /// is what actually plays; the difference is this segment's
  /// quantization error.
  double duration = 0.0;
};

/// Default bound on the relative period error a compiled timeline may
/// carry before compile_timeline fails fast: the quantized period must be
/// within 25% of the schedule's analytic period. Schedules whose phases
/// are far shorter than the step grid would otherwise play a silently
/// distorted (inflated) period.
inline constexpr double kDefaultMaxPeriodError = 0.25;

/// A compiled schedule: one period of piecewise-constant segments on a
/// fixed step size. Compilation is deterministic — the same (schedule,
/// time_step) pair always yields the same segments.
struct PowerTimeline {
  std::vector<TimelineSegment> segments;
  double time_step = 0.0;  ///< [s]

  std::size_t steps_per_period() const;
  double period() const;  ///< steps_per_period() * time_step [s]

  /// Sum of the requested phase durations [s] — the analytic period the
  /// schedule describes, before quantization onto the step grid.
  double requested_period() const;

  /// Signed quantization error of segment `i`:
  /// steps * time_step - duration [s].
  double segment_error(std::size_t i) const;

  /// Worst per-phase quantization error: max |segment_error(i)| [s]. Zero
  /// when every phase duration is a whole multiple of the step.
  double quantization_error() const;

  /// |period() - requested_period()| / requested_period(). This is the
  /// figure compile_timeline bounds: a large value means the played
  /// period is not the period the schedule asked for.
  double relative_period_error() const;

  /// Index into `segments` of the segment playing step `step` (0-based,
  /// wraps periodically). A walk over the few segments: no per-step table.
  std::size_t segment_at_step(std::size_t step) const;

  /// Power scale applied during step `step` (0-based, wraps periodically).
  double scale_at_step(std::size_t step) const;

  /// Time-weighted mean scale over one period — matches the duty factor the
  /// steady-state pipeline folds the schedule into *if* the phase durations
  /// quantize exactly onto the step grid; otherwise it is the duty of the
  /// quantized timeline actually played (compare against
  /// ScenarioSpec::duty_scale to expose the drift).
  double average_scale() const;
};

/// True when every phase of `schedule` plays the same power scale (an
/// empty schedule counts: it plays always-on). Such a schedule has no
/// observable period — the injected power never changes — so the
/// period-error bound of compile_timeline does not apply and adaptive
/// playback may regrow its grid freely. The one definition shared by the
/// compiler and the playback, so their gating can never disagree.
bool constant_scale(const std::vector<power::ActivityPhase>& schedule);

/// Quantize a schedule onto the step grid: each phase becomes one segment of
/// round(duration / time_step) steps (at least 1, so no phase vanishes). An
/// empty schedule compiles to a single always-on segment of one step per
/// period. Throws SpecError on a non-positive time step, on phases that the
/// ActivityTrace validation rejects (non-positive durations, negative
/// scales), or when the quantized period misses the analytic period by more
/// than `max_period_error` (relative; pass a larger bound — or infinity —
/// to accept coarser grids, e.g. when probing how far a step size can
/// grow). Constant-scale schedules are exempt from the period bound: their
/// power never changes, so no grid can distort what they play.
PowerTimeline compile_timeline(const std::vector<power::ActivityPhase>& schedule,
                               double time_step,
                               double max_period_error = kDefaultMaxPeriodError);

}  // namespace photherm::timeline
