#include "scenario/registry.hpp"

#include <cmath>
#include <functional>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace photherm::scenario {

namespace {

/// Numeric suffix usable inside a scenario name: "-" becomes "m", "." "p"
/// (25.5 -> "25p5", -40 -> "m40").
std::string name_suffix(double value) {
  std::ostringstream os;
  os.precision(6);
  os << value;
  std::string s = os.str();
  for (char& ch : s) {
    if (ch == '-') {
      ch = 'm';
    } else if (ch == '.') {
      ch = 'p';
    } else if (ch == '+') {
      ch = 'x';
    }
  }
  return s;
}

std::vector<ScenarioSpec> expand_traffic(const FamilySpec& request) {
  std::vector<ScenarioSpec> out;
  for (power::ActivityKind kind : power::all_activity_kinds()) {
    if (kind == power::ActivityKind::kRandom) {
      continue;  // needs a seed ladder, not a single scenario
    }
    ScenarioSpec s = request.base;
    s.name = request.prefix + "_" + power::to_string(kind);
    s.design.activity = kind;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ScenarioSpec> expand_ambient(const FamilySpec& request) {
  const std::vector<double> temps =
      request.values.empty() ? std::vector<double>{-40.0, 25.0, 85.0} : request.values;
  std::vector<ScenarioSpec> out;
  for (double t : temps) {
    ScenarioSpec s = request.base;
    s.name = request.prefix + "_" + name_suffix(t) + "c";
    s.design.package.t_ambient = t;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ScenarioSpec> expand_heater_ladder(const FamilySpec& request) {
  const std::vector<double> ratios =
      request.values.empty() ? std::vector<double>{0.0, 0.15, 0.3, 0.45, 0.6} : request.values;
  std::vector<ScenarioSpec> out;
  for (double ratio : ratios) {
    PH_REQUIRE(ratio >= 0.0 && ratio <= core::OnocDesignSpec::kMaxHeaterRatio,
               "heater_ladder ratio out of range [0, 10]");
    ScenarioSpec s = request.base;
    s.name = request.prefix + "_r" + name_suffix(ratio);
    s.design.heater_ratio = ratio;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ScenarioSpec> expand_duty_ramp(const FamilySpec& request) {
  const std::vector<double> duties =
      request.values.empty() ? std::vector<double>{0.25, 0.5, 0.75, 1.0} : request.values;
  std::vector<ScenarioSpec> out;
  for (double duty : duties) {
    PH_REQUIRE(duty > 0.0 && duty <= 1.0, "duty_ramp duty factor must be in (0, 1]");
    ScenarioSpec s = request.base;
    s.name = request.prefix + "_d" + name_suffix(duty);
    // One activity period: on for `duty`, idle for the rest.
    if (duty >= 1.0) {
      s.schedule = {{1.0, 1.0}};
    } else {
      s.schedule = {{duty, 1.0}, {1.0 - duty, 0.0}};
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ScenarioSpec> expand_transient_step(const FamilySpec& request) {
  const std::vector<double> scales =
      request.values.empty() ? std::vector<double>{0.25, 0.5, 1.0} : request.values;
  std::vector<ScenarioSpec> out;
  for (double scale : scales) {
    PH_REQUIRE(scale >= 0.0, "transient_step scale must be non-negative");
    ScenarioSpec s = request.base;
    s.name = request.prefix + "_s" + name_suffix(scale);
    // Constant schedule: power steps to `scale` at t = 0 and holds — the
    // timeline engine reports the settle time from a cold (ambient) start.
    s.schedule = {{1.0, scale}};
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ScenarioSpec> expand_transient_burst(const FamilySpec& request) {
  const std::vector<double> duties =
      request.values.empty() ? std::vector<double>{0.25, 0.5, 0.75} : request.values;
  std::vector<ScenarioSpec> out;
  for (double duty : duties) {
    PH_REQUIRE(duty > 0.0 && duty < 1.0, "transient_burst duty must be in (0, 1)");
    ScenarioSpec s = request.base;
    s.name = request.prefix + "_d" + name_suffix(duty);
    // Square-wave traffic burst over a 1 s period: full power for `duty`,
    // then a 10% idle floor (clock/leakage) for the rest.
    s.schedule = {{duty, 1.0}, {1.0 - duty, 0.1}};
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ScenarioSpec> expand_transient_soak(const FamilySpec& request) {
  const std::vector<double> scales =
      request.values.empty() ? std::vector<double>{1.0, 0.5} : request.values;
  std::vector<ScenarioSpec> out;
  for (double scale : scales) {
    PH_REQUIRE(scale >= 0.0, "transient_soak scale must be non-negative");
    ScenarioSpec s = request.base;
    s.name = request.prefix + "_s" + name_suffix(scale);
    // One long constant hold (a full minute — several package time
    // constants): the settle-bound workload the adaptive-dt playback is
    // built for. Fixed-grid playback pays horizon/dt solves here; adaptive
    // playback finishes orders of magnitude sooner.
    s.schedule = {{60.0, scale}};
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ScenarioSpec> expand_wdm_ladder(const FamilySpec& request) {
  const std::vector<double> channels =
      request.values.empty() ? std::vector<double>{4.0, 8.0, 16.0} : request.values;
  std::vector<ScenarioSpec> out;
  for (double c : channels) {
    PH_REQUIRE(c >= 1.0 && c == std::floor(c), "wdm_ladder channel count must be an integer >= 1");
    ScenarioSpec s = request.base;
    s.name = request.prefix + "_ch" + name_suffix(c);
    s.design.wdm_channels = static_cast<std::size_t>(c);
    out.push_back(std::move(s));
  }
  return out;
}

struct Family {
  const char* name;
  const char* description;
  std::function<std::vector<ScenarioSpec>(const FamilySpec&)> expand;
};

const std::vector<Family>& families() {
  static const std::vector<Family> table{
      {"traffic", "deterministic traffic/activity patterns (uniform, diagonal, hotspot, "
                  "checkerboard)",
       expand_traffic},
      {"ambient", "ambient-temperature corners; default ladder -40/25/85 degC",
       expand_ambient},
      {"heater_ladder", "MR-heater power ratios; default ladder 0/0.15/0.3/0.45/0.6",
       expand_heater_ladder},
      {"duty_ramp", "activity duty-cycle schedules; default ladder 0.25/0.5/0.75/1.0",
       expand_duty_ramp},
      {"wdm_ladder", "WDM channel counts (thermally identical, so the batch runner shares "
                     "one thermal solve); default ladder 4/8/16",
       expand_wdm_ladder},
      {"transient_step", "power-step settle studies for the timeline engine (constant "
                         "schedule at each scale); default ladder 0.25/0.5/1",
       expand_transient_step},
      {"transient_burst", "square-wave traffic bursts (1 s period, 10% idle floor) for "
                          "the timeline engine; default duty ladder 0.25/0.5/0.75",
       expand_transient_burst},
      {"transient_soak", "long-horizon constant holds (60 s) — settle-bound workloads "
                         "for adaptive-dt playback; default scale ladder 1/0.5",
       expand_transient_soak},
  };
  return table;
}

const Family& find_family(const std::string& name) {
  for (const Family& f : families()) {
    if (name == f.name) {
      return f;
    }
  }
  throw SpecError("unknown scenario family `" + name + "`; known families: " +
                  join(family_names(), ", "));
}

/// Base scenario of the built-in suites: the paper's SCC case study on the
/// 18 mm ring (4 ONIs), coarsened for batch throughput.
ScenarioSpec suite_base(double global_cell_xy, double oni_cell_xy) {
  ScenarioSpec s;
  s.name = "base";
  s.design.placement = core::OniPlacementMode::kRing;
  s.design.ring_case_id = 1;
  s.design.chip_power = 25.0;
  s.design.global_cell_xy = global_cell_xy;
  s.design.oni_cell_xy = oni_cell_xy;
  s.design.oni_cell_z = 2e-6;
  return s;
}

std::vector<ScenarioSpec> append(std::vector<ScenarioSpec> into,
                                 std::vector<ScenarioSpec> more) {
  for (ScenarioSpec& s : more) {
    into.push_back(std::move(s));
  }
  return into;
}

}  // namespace

std::vector<std::string> family_names() {
  std::vector<std::string> names;
  for (const Family& f : families()) {
    names.emplace_back(f.name);
  }
  return names;
}

std::string family_description(const std::string& family) {
  return find_family(family).description;
}

std::vector<ScenarioSpec> expand_family(const FamilySpec& request) {
  FamilySpec normalized = request;
  if (normalized.prefix.empty()) {
    normalized.prefix = normalized.family;
  }
  std::vector<ScenarioSpec> expanded = find_family(normalized.family).expand(normalized);
  // Ladder values closer than the name precision would alias; fail here so
  // the expansion stays serializable (parse rejects duplicate names).
  std::set<std::string> seen;
  for (const ScenarioSpec& s : expanded) {
    PH_REQUIRE(seen.insert(s.name).second,
               "family `" + normalized.family + "` expanded to a duplicate scenario name `" +
                   s.name + "`; ladder values are too close together");
  }
  return expanded;
}

std::vector<std::string> builtin_suite_names() {
  return {"smoke", "corners", "transient", "soak"};
}

std::vector<ScenarioSpec> builtin_suite(const std::string& name) {
  if (name == "smoke") {
    FamilySpec traffic;
    traffic.family = "traffic";
    traffic.base = suite_base(3e-3, 40e-6);
    return expand_family(traffic);
  }
  if (name == "corners") {
    const ScenarioSpec base = suite_base(2e-3, 20e-6);
    FamilySpec traffic{"traffic", "", base, {}};
    FamilySpec ambient{"ambient", "", base, {}};
    FamilySpec wdm{"wdm_ladder", "", base, {}};
    return append(append(expand_family(traffic), expand_family(ambient)),
                  expand_family(wdm));
  }
  if (name == "transient") {
    const ScenarioSpec base = suite_base(3e-3, 40e-6);
    FamilySpec step{"transient_step", "", base, {1.0, 0.5}};
    FamilySpec burst{"transient_burst", "", base, {0.5, 0.25}};
    return append(expand_family(step), expand_family(burst));
  }
  if (name == "soak") {
    FamilySpec soak{"transient_soak", "", suite_base(3e-3, 40e-6), {}};
    return expand_family(soak);
  }
  throw SpecError("unknown built-in suite `" + name + "`; known suites: " +
                  join(builtin_suite_names(), ", "));
}

}  // namespace photherm::scenario
