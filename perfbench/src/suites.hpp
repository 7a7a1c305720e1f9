/// \file suites.hpp
/// \brief Seeded scenario inputs of the end-to-end benchmark. Seed 0 is the
/// library's own `builtin:corners` / `builtin:transient` suite, bit for bit;
/// every other seed keeps the family structure and counts (4 traffic
/// patterns + 3 ambient corners + a 3-point WDM ladder sharing one coarse
/// solve; 2 power steps + 2 traffic bursts) and draws the chip power,
/// ambient temperatures and duty values from the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "timeline/playback.hpp"

namespace perfbench {

enum class Kind { kCorners, kTransient };

/// One benchmark workload: which suite it plays and at what concurrency
/// budget (executors, including the calling thread).
struct Workload {
  std::string name;
  Kind kind;
  std::size_t budget;
};

/// The workloads, by contract name; throws photherm::Error on an unknown one.
const Workload& find_workload(const std::string& name);

/// The scenario list a workload runs for `seed`.
std::vector<photherm::scenario::ScenarioSpec> generate_suite(Kind kind, std::uint64_t seed);

/// Playback settings of the transient workload: the CLI `play` defaults —
/// a fixed 40-period horizon with stop_on_settle off, so the step count
/// depends only on the schedule. Library solver tolerances.
photherm::timeline::PlaybackOptions playback_options();

}  // namespace perfbench
