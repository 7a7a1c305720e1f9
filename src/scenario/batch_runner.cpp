#include "scenario/batch_runner.hpp"

#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace photherm::scenario {

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}

BatchResult BatchRunner::run(const std::vector<ScenarioSpec>& scenarios) const {
  PH_REQUIRE(!scenarios.empty(), "batch has no scenarios");
  const std::size_t n = scenarios.size();

  // Validates every spec up front, before any solve starts.
  std::vector<core::ThermalAwareDesigner> designers;
  designers.reserve(n);
  for (const ScenarioSpec& s : scenarios) {
    try {
      designers.emplace_back(s.effective_design());
    } catch (const Error& e) {
      throw SpecError("scenario `" + s.name + "`: " + e.what());
    }
  }
  telemetry::count("batch.scenarios", n);

  // Thermal stages: one report per distinct thermal problem (core engine).
  core::ThermalBatch thermal = core::evaluate_thermal_batch(
      designers, [&scenarios](std::size_t i) { return scenarios[i].name; }, std::nullopt,
      options_.share_global_solves, options_.threads);

  // Per scenario, only the SNR analysis and the verdicts remain.
  BatchResult result;
  result.reports.resize(n);
  util::parallel_for(
      n, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          telemetry::Span span("batch.scenario", scenarios[i].name.c_str());
          telemetry::ScopedTimer wall("batch.scenario.wall");
          with_error_context("scenario `" + scenarios[i].name + "`", [&] {
            result.reports[i] = designers[i].design_report(std::move(thermal.reports[i]));
          });
        }
      },
      options_.threads);

  result.stats.scenario_count = n;
  result.stats.global_solves = thermal.global_solves;
  result.stats.cache_hits = n - thermal.global_solves;
  result.stats.thermal_solves = thermal.thermal_solves;
  telemetry::count("batch.cache.misses", thermal.global_solves);
  telemetry::count("batch.cache.hits", result.stats.cache_hits);
  telemetry::count("batch.cache.thermal_solves", thermal.thermal_solves);
  return result;
}

Table batch_table(const std::vector<ScenarioSpec>& scenarios, const BatchResult& result) {
  PH_REQUIRE(scenarios.size() == result.reports.size(),
             "scenario list and batch result are not index-aligned");
  Table table({"scenario", "activity", "placement", "t_ambient_c", "chip_power_w", "duty",
               "p_vcsel_w", "heater_ratio", "waveguides", "wdm_channels", "fanout",
               "chip_avg_c", "oni_avg_c", "oni_spread_c", "max_gradient_c", "gradient_ok",
               "worst_snr_db", "undetectable", "links_ok"});
  table.set_exact();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioSpec& s = scenarios[i];
    const core::DesignReport& report = result.reports[i];
    const core::OnocDesignSpec& spec = report.spec;  // effective design
    std::vector<TableCell> row{
        s.name,
        power::to_string(spec.activity),
        core::to_string(spec.placement),
        spec.package.t_ambient,
        spec.chip_power,
        s.duty_scale(),
        spec.p_vcsel,
        spec.heater_ratio,
        static_cast<double>(spec.waveguides),
        static_cast<double>(spec.wdm_channels),
        static_cast<double>(spec.fanout),
        report.thermal.chip_average,
        report.thermal.oni_average,
        report.thermal.oni_spread,
        report.thermal.max_gradient,
        std::string(report.gradient_ok() ? "yes" : "no"),
    };
    if (report.snr) {
      row.emplace_back(report.snr->network.worst_snr_db);
      row.emplace_back(static_cast<double>(report.snr->network.undetectable_count));
    } else {
      row.emplace_back(std::string());
      row.emplace_back(std::string());
    }
    row.emplace_back(std::string(report.links_ok() ? "yes" : "no"));
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace photherm::scenario
