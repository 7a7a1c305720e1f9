#include "scenario/scenario.hpp"

#include <set>

#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/text_file.hpp"

namespace photherm::scenario {

namespace {

/// Shortest round-trip spelling (util::format_shortest): serialize/parse is
/// bit-identical while common values stay readable ("0.3", not
/// "0.29999999999999999").
std::string fmt_schedule(const std::vector<power::ActivityPhase>& schedule) {
  std::vector<std::string> parts;
  parts.reserve(schedule.size());
  for (const power::ActivityPhase& p : schedule) {
    parts.push_back(format_shortest(p.duration) + ":" + format_shortest(p.scale));
  }
  return join(parts, ", ");
}

std::vector<power::ActivityPhase> parse_schedule(const std::string& value) {
  std::vector<power::ActivityPhase> schedule;
  for (const std::string& part : split(value, ',')) {
    const std::vector<std::string> pair = split(part, ':');
    if (pair.size() != 2) {
      throw SpecError("schedule phase `" + trim(part) +
                      "` is not of the form duration:scale");
    }
    power::ActivityPhase phase;
    phase.duration = parse_double(pair[0], "schedule phase duration");
    phase.scale = parse_double(pair[1], "schedule phase scale");
    schedule.push_back(phase);
  }
  // Delegate range checks (positive durations, non-negative scales).
  const power::ActivityTrace checked(schedule);
  (void)checked;
  return schedule;
}

using Field = RecordField<ScenarioSpec>;
using Values = std::vector<std::string>;

/// The scenario format: every key once, in serialization order.
const RecordFormat<ScenarioSpec>& format() {
  static const RecordFormat<ScenarioSpec> scenario_format{
      "scenario file",
      "scenario",
      "scenario suite",
      {
          {"activity",
           [](const ScenarioSpec& s) -> Values { return {power::to_string(s.design.activity)}; },
           [](ScenarioSpec& s, const std::string& v, const std::string&) {
             s.design.activity = power::activity_kind_from_string(v);
           }},
          Field::scalar("chip_power", [](auto& s) -> auto& { return s.design.chip_power; }),
          Field::scalar("seed", [](auto& s) -> auto& { return s.design.seed; }),
          {"placement",
           [](const ScenarioSpec& s) -> Values { return {core::to_string(s.design.placement)}; },
           [](ScenarioSpec& s, const std::string& v, const std::string&) {
             s.design.placement = core::placement_from_string(v);
           }},
          Field::scalar("ring_case", [](auto& s) -> auto& { return s.design.ring_case_id; }),
          Field::scalar("p_vcsel", [](auto& s) -> auto& { return s.design.p_vcsel; }),
          Field::scalar("heater_ratio", [](auto& s) -> auto& { return s.design.heater_ratio; }),
          Field::scalar("active_tx",
                        [](auto& s) -> auto& { return s.design.active_tx_per_waveguide; }),
          Field::scalar("driver_equals_vcsel",
                        [](auto& s) -> auto& { return s.design.p_driver_equals_p_vcsel; }),
          Field::scalar("t_ambient", [](auto& s) -> auto& { return s.design.package.t_ambient; }),
          Field::scalar("h_top", [](auto& s) -> auto& { return s.design.package.h_top; }),
          Field::scalar("h_bottom", [](auto& s) -> auto& { return s.design.package.h_bottom; }),
          Field::scalar("fanout", [](auto& s) -> auto& { return s.design.fanout; }),
          Field::scalar("waveguides", [](auto& s) -> auto& { return s.design.waveguides; }),
          Field::scalar("wdm_channels", [](auto& s) -> auto& { return s.design.wdm_channels; }),
          Field::scalar("global_cell_xy", [](auto& s) -> auto& { return s.design.global_cell_xy; }),
          Field::scalar("oni_cell_xy", [](auto& s) -> auto& { return s.design.oni_cell_xy; }),
          Field::scalar("oni_cell_z", [](auto& s) -> auto& { return s.design.oni_cell_z; }),
          Field::scalar("window_margin", [](auto& s) -> auto& { return s.design.window_margin; }),
          // An empty schedule writes no line: key absent means "always on".
          {"schedule",
           [](const ScenarioSpec& s) -> Values {
             return s.schedule.empty() ? Values{} : Values{fmt_schedule(s.schedule)};
           },
           [](ScenarioSpec& s, const std::string& v, const std::string&) {
             s.schedule = parse_schedule(v);
           }},
      }};
  return scenario_format;
}

bool valid_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == '-' || ch == '.';
    if (!ok) {
      return false;
    }
  }
  return true;
}

}  // namespace

double ScenarioSpec::duty_scale() const {
  if (schedule.empty()) {
    return 1.0;
  }
  return power::ActivityTrace(schedule).average_scale();
}

core::OnocDesignSpec ScenarioSpec::effective_design() const {
  core::OnocDesignSpec d = design;
  d.chip_power *= duty_scale();
  return d;
}

const std::vector<std::string>& scenario_keys() {
  static const std::vector<std::string> keys = format().keys();
  return keys;
}

std::vector<ScenarioSpec> parse_scenarios(const std::string& text,
                                          const core::OnocDesignSpec& base,
                                          const std::string& path) {
  std::vector<ScenarioSpec> scenarios;
  std::set<std::string> seen_names;
  format().read(text, path, [&](const std::string& name) -> ScenarioSpec& {
    if (!valid_name(name)) {
      throw SpecError("scenario name `" + name +
                      "` is empty or contains characters outside [A-Za-z0-9_.-]");
    }
    if (!seen_names.insert(name).second) {
      throw SpecError("duplicate scenario name `" + name + "`");
    }
    ScenarioSpec& spec = scenarios.emplace_back();
    spec.name = name;
    spec.design = base;
    return spec;
  });
  return scenarios;
}

std::string serialize_scenarios(const std::vector<ScenarioSpec>& scenarios) {
  std::string out = format().header(scenarios.size());
  for (const ScenarioSpec& s : scenarios) {
    PH_REQUIRE(valid_name(s.name), "scenario name `" + s.name +
                                       "` is empty or contains characters outside "
                                       "[A-Za-z0-9_.-]; cannot serialize");
    format().append(out, s.name, s);
  }
  return out;
}

std::vector<ScenarioSpec> load_scenario_file(const std::string& path,
                                             const core::OnocDesignSpec& base) {
  return parse_scenarios(read_text_file(path, "scenario file"), base, path);
}

void save_scenario_file(const std::string& path, const std::vector<ScenarioSpec>& scenarios) {
  write_text_file(path, serialize_scenarios(scenarios), "scenario output file");
}

}  // namespace photherm::scenario
