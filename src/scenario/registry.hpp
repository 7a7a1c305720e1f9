/// \file registry.hpp
/// \brief Built-in scenario families and suites. A family is a
/// parameterized generator (traffic patterns, ambient corners, heater
/// ladders, duty ramps, WDM ladders, transient steps/bursts) that expands
/// into a concrete scenario list from a base scenario; a suite is a named,
/// ready-to-run combination of families (what `photherm_cli expand
/// builtin:<name>` emits).
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace photherm::scenario {

/// A family expansion request.
struct FamilySpec {
  /// Registry key; one of family_names().
  std::string family;
  /// Name prefix of the generated scenarios (defaults to the family name).
  std::string prefix;
  /// Template every generated scenario starts from.
  ScenarioSpec base;
  /// Ladder parameters for the numeric families (ambient temperatures,
  /// heater ratios, duty factors, channel counts); empty uses the family's
  /// default ladder. Ignored by "traffic".
  std::vector<double> values;
};

/// Registered family names.
std::vector<std::string> family_names();

/// One-line description of a family; throws SpecError on an unknown name.
std::string family_description(const std::string& family);

/// Expand a family into concrete scenarios (deterministic: same request,
/// same list). Throws SpecError on an unknown family or bad parameters.
std::vector<ScenarioSpec> expand_family(const FamilySpec& request);

/// Built-in suite names ("smoke", "corners", "transient").
std::vector<std::string> builtin_suite_names();

/// Expand a built-in suite; throws SpecError on an unknown name.
/// - "smoke":   4 traffic-pattern scenarios at smoke-test resolution.
/// - "corners": 10 scenarios — traffic patterns, ambient corners
///   (-40/25/85 degC) and a WDM-channel ladder; the ladder scenarios share
///   one thermal problem with traffic_uniform, so the batch runner's solve
///   cache shares their coarse field and thermal report.
/// - "transient": 4 schedule-driven scenarios (power steps and traffic
///   bursts) for the timeline engine's playback (`photherm_cli play`).
std::vector<ScenarioSpec> builtin_suite(const std::string& name);

}  // namespace photherm::scenario
