/// \file ledger.hpp
/// \brief Per-layer ledger of the traced replay: reads the spans back out of
/// the in-memory Chrome trace (telemetry::trace_json) and reduces them to
/// the layer metrics, plus the small statistics helpers the report needs.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// One complete ("X") trace event.
struct SpanEvent {
  std::string name;
  long tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// Every complete event of a telemetry::trace_json() document (one event
/// per line, the format telemetry.cpp writes).
std::vector<SpanEvent> parse_trace(const std::string& json);

/// Durations [ms] of every span called `name`.
std::vector<double> durations_ms(const std::vector<SpanEvent>& spans, const std::string& name);

/// Summed duration [ms] of the spans called `name`.
double total_ms(const std::vector<SpanEvent>& spans, const std::string& name);

/// Share of root-span time (core.prepare, core.global_solve, core.point,
/// timeline.playback) that no leaf span of the replay covers.
double unattributed_ratio(const std::vector<SpanEvent>& spans);

/// A counter's total from a telemetry::metrics_csv() document; 0 when the
/// counter is absent.
double metrics_counter(const std::string& csv, const std::string& name);

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);

}  // namespace perfbench
