/// \file scenario.hpp
/// \brief Declarative workload scenarios: a named design point
/// (OnocDesignSpec overrides), an activity schedule (power/activity duty
/// phases) and ambient/heater corners, with a text round-trip so scenario
/// suites live in files. The batch runner (batch_runner.hpp) executes lists
/// of these; the registry (registry.hpp) expands parameterized families
/// into them.
///
/// A scenario file is a record file (util/text_file.hpp) whose records open
/// with `scenario <name>`:
///
///     scenario hotspot_85c
///     activity = hotspot
///     t_ambient = 85
///     schedule = 0.6:1, 0.4:0.25
///
/// Unlisted keys keep the values of the base design passed to the parser
/// (package geometry, ONI layout and technology parameters are only
/// reachable through that base). Serialization writes every key at full
/// precision, so parse(serialize(x)) reproduces x bit for bit.
#pragma once

#include <string>
#include <vector>

#include "core/spec.hpp"

namespace photherm::scenario {

/// One named workload scenario.
struct ScenarioSpec {
  std::string name;
  core::OnocDesignSpec design;
  /// Optional activity schedule. Steady-state evaluation folds it into the
  /// chip power through the time-weighted average scale (duty factor); the
  /// laser/heater powers are run-time constants and are not scaled.
  std::vector<power::ActivityPhase> schedule;

  /// Time-weighted mean scale of the schedule; 1.0 when it is empty.
  double duty_scale() const;

  /// The design point actually evaluated: `design` with the schedule folded
  /// into the chip power.
  core::OnocDesignSpec effective_design() const;
};

/// Keys understood by the parser/serializer, in serialization order.
const std::vector<std::string>& scenario_keys();

/// Parse a scenario file read from `path` (empty for in-memory text).
/// `base` supplies every field the format does not cover. Throws SpecError
/// ("scenario file <path>, line N: ...") on unknown keys, bad values,
/// duplicate or invalid names.
std::vector<ScenarioSpec> parse_scenarios(const std::string& text,
                                          const core::OnocDesignSpec& base = {},
                                          const std::string& path = "");

/// Serialize scenarios to the file format at full precision.
std::string serialize_scenarios(const std::vector<ScenarioSpec>& scenarios);

/// Read + parse a scenario file; throws photherm::Error on I/O failure.
std::vector<ScenarioSpec> load_scenario_file(const std::string& path,
                                             const core::OnocDesignSpec& base = {});

/// Serialize + write a scenario file; throws photherm::Error on I/O failure.
void save_scenario_file(const std::string& path, const std::vector<ScenarioSpec>& scenarios);

}  // namespace photherm::scenario
