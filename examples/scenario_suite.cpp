/// Scenario engine walk-through: expand a parameterized family into
/// concrete scenarios, run them as one cached batch on the thread pool and
/// print the per-scenario design verdicts. See also `tools/photherm_cli`
/// for the same flow driven from scenario files on disk.
#include <iostream>

#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"

int main() {
  using namespace photherm;

  // 1. A base scenario: the paper's SCC case study on the 18 mm ring,
  //    coarsened so this example runs in seconds.
  scenario::ScenarioSpec base;
  base.design.placement = core::OniPlacementMode::kRing;
  base.design.ring_case_id = 1;
  base.design.chip_power = 25.0;
  base.design.global_cell_xy = 3e-3;
  base.design.oni_cell_xy = 40e-6;
  base.design.oni_cell_z = 2e-6;

  // 2. Expand a family: WDM channel-count corners. These scenarios are
  //    thermally identical, so the batch runner solves their thermal
  //    problem (coarse field and ONI windows) once and shares the report.
  scenario::FamilySpec family;
  family.family = "wdm_ladder";
  family.prefix = "wdm";
  family.base = base;
  family.values = {4.0, 8.0, 16.0};
  const auto suite = scenario::expand_family(family);

  // 3. Run the batch (threads = util::concurrency(), cache on).
  const scenario::BatchResult result = scenario::BatchRunner().run(suite);
  std::cout << "ran " << result.stats.scenario_count << " scenarios with "
            << result.stats.global_solves << " coarse global solves ("
            << result.stats.cache_hits << " cache hits) and "
            << result.stats.thermal_solves << " thermal solves\n\n";

  // 4. Inspect the verdicts.
  Table table = scenario::batch_table(suite, result);
  table.set_precision(6);
  print_table(std::cout, "scenario suite report", table);
  return 0;
}
