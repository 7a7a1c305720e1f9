#include "scenario/batch_runner.hpp"

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace photherm::scenario {

namespace {

/// Partition of `[0, n)` into groups: the group of every index, and the
/// first index of every group in first-appearance order.
struct Grouping {
  std::vector<std::size_t> group_of;
  std::vector<std::size_t> first;
};

/// Group indices by equal `key_of(i)`; with `share` off every index is its
/// own group and no key is computed.
template <typename KeyFn>
Grouping group_by(std::size_t n, bool share, const KeyFn& key_of) {
  Grouping grouping;
  grouping.group_of.resize(n);
  std::unordered_map<std::string, std::size_t> group_index;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t group = grouping.first.size();
    if (share) {
      group = group_index.try_emplace(key_of(i), group).first->second;
    }
    if (group == grouping.first.size()) {
      grouping.first.push_back(i);
    }
    grouping.group_of[i] = group;
  }
  return grouping;
}

}  // namespace

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
  const auto context = [&scenarios](std::size_t i) {
    return "scenario `" + scenarios[i].name + "`";
  };
  telemetry::count("batch.scenarios", n);

  // Group scenarios into thermal problems, and those into global scenes.
  // Keys serialize everything the solves read, so equal keys guarantee the
  // shared field and report are bit-identical to the ones a cold solve
  // would produce; equal thermal keys imply equal global keys.
  const bool share = options_.share_global_solves;
  const Grouping problems =
      group_by(n, share, [&](std::size_t i) { return designers[i].thermal_key(); });
  const std::size_t problem_count = problems.first.size();
  const Grouping scenes = group_by(problem_count, share, [&](std::size_t p) {
    return designers[problems.first[p]].global_scene_key();
  });
  const std::size_t scene_count = scenes.first.size();
  PH_LOG_DEBUG << "scenario batch: " << n << " scenarios over " << problem_count
               << " distinct thermal problems and " << scene_count << " global scenes";

  // Stage 1, coarse pass: one global solve per distinct scene.
  std::vector<std::optional<core::CoarseGlobalSolve>> globals(scene_count);
  util::parallel_for(
      scene_count, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t g = begin; g < end; ++g) {
          const std::size_t i = problems.first[scenes.first[g]];
          telemetry::Span span("batch.global_solve", scenarios[i].name.c_str());
          with_error_context(context(i), [&] { globals[g] = designers[i].solve_global(); });
        }
      },
      options_.threads);
  const auto global_of = [&](std::size_t p) -> const core::CoarseGlobalSolve& {
    return *globals[scenes.group_of[p]];
  };

  // Stage 2, fine pass: every ONI window of every distinct thermal problem
  // is one task of a single flat region, so the pool stays busy across
  // problem boundaries. Windows land at their (problem, slot) position.
  std::vector<std::vector<core::OniThermalReport>> onis(problem_count);
  std::vector<std::pair<std::size_t, std::size_t>> windows;  // (problem, slot)
  for (std::size_t p = 0; p < problem_count; ++p) {
    const std::size_t slots = global_of(p).system.onis.size();
    onis[p].resize(slots);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      windows.emplace_back(p, slot);
    }
  }
  util::parallel_for(
      windows.size(), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t w = begin; w < end; ++w) {
          const std::size_t p = windows[w].first;
          const std::size_t slot = windows[w].second;
          const core::CoarseGlobalSolve& global = global_of(p);
          const std::size_t i = problems.first[p];
          telemetry::Span span("batch.window", scenarios[i].name + " oni" +
                                                   std::to_string(global.system.onis[slot].index));
          with_error_context(context(i), [&] {
            onis[p][slot] = designers[i].evaluate_oni(global, slot);
          });
        }
      },
      options_.threads);

  // Stage 3: one ThermalReport per thermal problem.
  std::vector<core::ThermalReport> thermal(problem_count);
  for (std::size_t p = 0; p < problem_count; ++p) {
    const std::size_t i = problems.first[p];
    with_error_context(context(i), [&] {
      thermal[p] = designers[i].summarize(global_of(p), std::move(onis[p]));
    });
  }

  // Stage 4: per scenario, only the SNR analysis and the verdicts remain.
  BatchResult result;
  result.reports.resize(n);
  util::parallel_for(
      n, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          telemetry::Span span("batch.scenario", scenarios[i].name.c_str());
          telemetry::ScopedTimer wall("batch.scenario.wall");
          with_error_context(context(i), [&] {
            result.reports[i] = designers[i].design_report(thermal[problems.group_of[i]]);
          });
        }
      },
      options_.threads);

  result.stats.scenario_count = n;
  result.stats.global_solves = scene_count;
  result.stats.cache_hits = n - scene_count;
  result.stats.thermal_solves = problem_count;
  telemetry::count("batch.cache.misses", scene_count);
  telemetry::count("batch.cache.hits", result.stats.cache_hits);
  telemetry::count("batch.cache.thermal_solves", problem_count);
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
