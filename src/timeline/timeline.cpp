#include "timeline/timeline.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace photherm::timeline {

std::size_t PowerTimeline::steps_per_period() const {
  std::size_t steps = 0;
  for (const TimelineSegment& segment : segments) {
    steps += segment.steps;
  }
  return steps;
}

double PowerTimeline::period() const {
  return static_cast<double>(steps_per_period()) * time_step;
}

double PowerTimeline::requested_period() const {
  double total = 0.0;
  for (const TimelineSegment& segment : segments) {
    total += segment.duration;
  }
  return total;
}

double PowerTimeline::segment_error(std::size_t i) const {
  PH_REQUIRE(i < segments.size(), "segment index out of range");
  return static_cast<double>(segments[i].steps) * time_step - segments[i].duration;
}

double PowerTimeline::quantization_error() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    worst = std::max(worst, std::abs(segment_error(i)));
  }
  return worst;
}

double PowerTimeline::relative_period_error() const {
  const double requested = requested_period();
  if (!(requested > 0.0)) {
    return 0.0;  // synthetic timelines (empty schedule) have no analytic period
  }
  return std::abs(period() - requested) / requested;
}

std::size_t PowerTimeline::segment_at_step(std::size_t step) const {
  PH_REQUIRE(!segments.empty(), "empty timeline");
  std::size_t offset = step % steps_per_period();
  std::size_t s = 0;
  while (offset >= segments[s].steps) {  // ends: offset < steps_per_period()
    offset -= segments[s].steps;
    ++s;
  }
  return s;
}

double PowerTimeline::scale_at_step(std::size_t step) const {
  return segments[segment_at_step(step)].scale;
}

double PowerTimeline::average_scale() const {
  PH_REQUIRE(!segments.empty(), "empty timeline");
  double weighted = 0.0;
  for (const TimelineSegment& segment : segments) {
    weighted += segment.scale * static_cast<double>(segment.steps);
  }
  return weighted / static_cast<double>(steps_per_period());
}

bool constant_scale(const std::vector<power::ActivityPhase>& schedule) {
  for (const power::ActivityPhase& phase : schedule) {
    if (phase.scale != schedule.front().scale) {
      return false;
    }
  }
  return true;
}

PowerTimeline compile_timeline(const std::vector<power::ActivityPhase>& schedule,
                               double time_step, double max_period_error) {
  PH_REQUIRE(time_step > 0.0, "timeline time step must be positive");
  PH_REQUIRE(max_period_error >= 0.0, "max_period_error must be non-negative");
  PowerTimeline timeline;
  timeline.time_step = time_step;
  if (schedule.empty()) {
    // Always-on, one step per period: the step grid *is* the period, so
    // there is nothing to quantize (duration = time_step keeps the error
    // accounting at exactly zero).
    timeline.segments.push_back({1.0, 1, time_step});
    return timeline;
  }
  // Range checks (positive durations, non-negative scales) live in the
  // ActivityTrace constructor; reuse them so the timeline and the
  // steady-state duty fold accept exactly the same schedules.
  const power::ActivityTrace checked(schedule);
  (void)checked;
  for (const power::ActivityPhase& phase : schedule) {
    TimelineSegment segment;
    segment.scale = phase.scale;
    segment.steps = static_cast<std::size_t>(
        std::max<long long>(1, std::llround(phase.duration / time_step)));
    segment.duration = phase.duration;
    timeline.segments.push_back(segment);
  }
  // Fail fast on a grid too coarse for the schedule: llround changes the
  // played period and sub-step phases inflate to one full step, so a
  // playback on this grid would study a different workload than the
  // schedule describes. Constant-scale schedules are exempt — their power
  // never changes, so the "period" carries no physics and any grid plays
  // them faithfully (the error stays queryable either way).
  const double period_error = timeline.relative_period_error();
  if (!constant_scale(schedule) && period_error > max_period_error) {
    std::ostringstream os;
    os << "schedule does not fit the step grid: quantizing onto time_step = " << time_step
       << " s plays a period of " << timeline.period() << " s instead of the requested "
       << timeline.requested_period() << " s (relative error " << period_error
       << " > bound " << max_period_error
       << "); shrink the time step or raise the bound";
    throw SpecError(os.str());
  }
  return timeline;
}

}  // namespace photherm::timeline
