#include "suites.hpp"

#include <cmath>

#include "scenario/registry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using photherm::scenario::FamilySpec;
using photherm::scenario::ScenarioSpec;

namespace {

/// Draw from [lo, hi) rounded to `step`, so scenario names stay short.
double draw(photherm::Rng& rng, double lo, double hi, double step) {
  return std::round(rng.uniform(lo, hi) / step) * step;
}

std::vector<ScenarioSpec> expand(const char* family, const ScenarioSpec& base,
                                 std::vector<double> values) {
  return photherm::scenario::expand_family(FamilySpec{family, "", base, std::move(values)});
}

void append(std::vector<ScenarioSpec>& into, std::vector<ScenarioSpec> more) {
  for (ScenarioSpec& s : more) {
    into.push_back(std::move(s));
  }
}

/// The base scenario of a built-in suite, recovered from its first entry
/// (the registry keeps its base private): everything but the fields the
/// first family overrode.
ScenarioSpec suite_base(const char* suite) {
  ScenarioSpec base = photherm::scenario::builtin_suite(suite).front();
  base.name = "base";
  base.design.activity = photherm::core::OnocDesignSpec{}.activity;
  base.schedule.clear();
  return base;
}

std::vector<ScenarioSpec> corners(std::uint64_t seed) {
  ScenarioSpec base = suite_base("corners");
  std::vector<double> ambients;  // empty = the family's -40/25/85 degC ladder
  if (seed != 0) {
    photherm::Rng rng(seed);
    base.design.chip_power = draw(rng, 20.0, 30.0, 0.1);
    ambients = {draw(rng, -45.0, -35.0, 0.1), draw(rng, 20.0, 30.0, 0.1),
                draw(rng, 75.0, 85.0, 0.1)};
  }
  std::vector<ScenarioSpec> out = expand("traffic", base, {});
  append(out, expand("ambient", base, ambients));
  append(out, expand("wdm_ladder", base, {}));  // 4/8/16 channels, one coarse scene
  return out;
}

std::vector<ScenarioSpec> transient(std::uint64_t seed) {
  ScenarioSpec base = suite_base("transient");
  std::vector<double> scales{1.0, 0.5};
  std::vector<double> duties{0.5, 0.25};
  if (seed != 0) {
    photherm::Rng rng(seed);
    base.design.chip_power = draw(rng, 20.0, 30.0, 0.1);
    base.design.package.t_ambient = draw(rng, 25.0, 45.0, 0.1);
    scales = {draw(rng, 0.75, 1.0, 0.01), draw(rng, 0.3, 0.6, 0.01)};
    duties = {draw(rng, 0.45, 0.7, 0.01), draw(rng, 0.15, 0.35, 0.01)};
  }
  std::vector<ScenarioSpec> out = expand("transient_step", base, scales);
  append(out, expand("transient_burst", base, duties));
  return out;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  static const std::vector<Workload> workloads{
      {"corners_serial", Kind::kCorners, 1},
      {"corners_b4", Kind::kCorners, 4},
      {"transient_serial", Kind::kTransient, 1},
  };
  for (const Workload& w : workloads) {
    if (w.name == name) {
      return w;
    }
  }
  throw photherm::Error("unknown workload `" + name +
                        "`; known: corners_serial, corners_b4, transient_serial");
}

std::vector<ScenarioSpec> generate_suite(Kind kind, std::uint64_t seed) {
  std::vector<ScenarioSpec> suite = kind == Kind::kCorners ? corners(seed) : transient(seed);
  if (seed == 0) {
    // The default seed must be the library's suite exactly.
    const char* name = kind == Kind::kCorners ? "corners" : "transient";
    PH_REQUIRE(photherm::scenario::serialize_scenarios(suite) ==
                   photherm::scenario::serialize_scenarios(
                       photherm::scenario::builtin_suite(name)),
               std::string("seed 0 no longer reproduces builtin:") + name);
  }
  return suite;
}

photherm::timeline::PlaybackOptions playback_options() {
  photherm::timeline::PlaybackOptions options;
  options.stop_on_settle = false;
  options.max_periods = 40;
  return options;
}

}  // namespace perfbench
