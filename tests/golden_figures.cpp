/// golden_figures — writes reduced Fig. 9-b, Fig. 10 and Fig. 12 sweeps as
/// exact-mode CSVs into DIR, for the golden-figure ctests
/// (golden_figures.cmake):
///
///   golden_figures heater DIR    writes DIR/fig9b.csv and DIR/fig10.csv
///   golden_figures snr DIR       writes DIR/fig12.csv
///
/// Both make the library calls the figure benches make
/// (core::explore_heater_ratios, core::sweep_snr) at the benches'
/// PHOTHERM_FAST mesh (oni_cell_xy = 10 um, global_cell_xy = 2 mm):
///  - Fig. 9-b: PVCSEL in {2, 6} mW x heater ratio in {0, 0.3, 0.6},
///    uniform 25 W activity (bench_fig9b_gradient's fast grid).
///  - Fig. 10: PVCSEL in {1, 6} mW, without (ratio 0) and with (ratio 0.3)
///    the heater (bench_fig10_heater_compare's fast grid). The 6 mW rows are
///    read from the Fig. 9-b sweep, whose grid holds both ratios.
///  - Fig. 12: ring cases 1 and 3 under diagonal activity only
///    (bench_fig12_snr's fast cases; the widest inter-ONI spread).
///
/// The references tests/golden/fig9b.csv, fig10.csv and fig12.csv are this
/// program's output from a Release build (GCC 12.2, x86-64) of commit
/// cdf41ab, the last one with a second preconditioner; the ILU(0)-only
/// build writes them byte for byte.
///
/// Powers are in mW or uW and lengths in mm, as the benches print them, so
/// every nonzero cell is above 0.1 in magnitude: there the diff's
/// 1e-4 * max(1, |a|, |b|) tolerance is tighter than a 1e-3 relative change.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/design_space.hpp"
#include "core/methodology.hpp"
#include "power/activity.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace {

using namespace photherm;

core::OnocDesignSpec fast_mesh(core::OnocDesignSpec spec) {
  spec.oni_cell_xy = 10e-6;
  spec.global_cell_xy = 2e-3;
  return spec;
}

const core::HeaterSweepPoint& at_ratio(const std::vector<core::HeaterSweepPoint>& sweep,
                                       double ratio) {
  for (const core::HeaterSweepPoint& point : sweep) {
    if (point.heater_ratio == ratio) {
      return point;
    }
  }
  throw Error("heater sweep has no point at ratio " + std::to_string(ratio));
}

void write_heater_figures(const std::string& dir) {
  core::OnocDesignSpec base;
  base.placement = core::OniPlacementMode::kAllTiles;
  base.activity = power::ActivityKind::kUniform;
  base.chip_power = 25.0;
  base = fast_mesh(base);
  const auto sweep_at = [&](double p_vcsel, const std::vector<double>& ratios) {
    core::OnocDesignSpec spec = base;
    spec.p_vcsel = p_vcsel;
    return core::explore_heater_ratios(spec, ratios);
  };

  const std::vector<double> ratios = {0.0, 0.3, 0.6};
  const auto sweep_2mw = sweep_at(2e-3, ratios);
  const auto sweep_6mw = sweep_at(6e-3, ratios);
  Table fig9b({"p_vcsel_mw", "heater_ratio", "p_heater_mw", "gradient_c", "oni_average_c"});
  fig9b.set_exact();
  for (const auto& [p_vcsel, sweep] :
       {std::pair{2e-3, &sweep_2mw}, std::pair{6e-3, &sweep_6mw}}) {
    for (const core::HeaterSweepPoint& point : *sweep) {
      fig9b.add_row({p_vcsel * 1e3, point.heater_ratio, point.p_heater * 1e3, point.gradient,
                     point.oni_average});
    }
  }
  fig9b.write_csv(dir + "/fig9b.csv");

  const auto sweep_1mw = sweep_at(1e-3, {0.0, 0.3});
  Table fig10({"p_vcsel_mw", "avg_without_c", "grad_without_c", "avg_with_c", "grad_with_c"});
  fig10.set_exact();
  for (const auto& [p_vcsel, sweep] :
       {std::pair{1e-3, &sweep_1mw}, std::pair{6e-3, &sweep_6mw}}) {
    const core::HeaterSweepPoint& without = at_ratio(*sweep, 0.0);
    const core::HeaterSweepPoint& with = at_ratio(*sweep, 0.3);
    fig10.add_row(
        {p_vcsel * 1e3, without.oni_average, without.gradient, with.oni_average, with.gradient});
  }
  fig10.write_csv(dir + "/fig10.csv");
}

void write_snr_figure(const std::string& dir) {
  core::OnocDesignSpec base;
  base.placement = core::OniPlacementMode::kRing;
  base.chip_power = 24.0;
  base.p_vcsel = 3.6e-3;
  base.heater_ratio = 0.30;
  base.seed = 7;
  base = fast_mesh(base);
  const auto sweep = core::sweep_snr(base, {1, 3}, {power::ActivityKind::kDiagonal});

  Table fig12({"activity", "ring_case", "waveguide_length_mm", "oni_t_min_c", "oni_t_max_c",
               "signal_power_uw", "crosstalk_power_uw", "worst_snr_db"});
  fig12.set_exact();
  for (const core::SnrSweepPoint& row : sweep) {
    fig12.add_row({power::to_string(row.activity), static_cast<double>(row.ring_case),
                   row.waveguide_length * 1e3, row.oni_t_min, row.oni_t_max,
                   row.signal_power * 1e6, row.crosstalk_power * 1e6, row.worst_snr_db});
  }
  fig12.write_csv(dir + "/fig12.csv");
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() != 2 || (args[0] != "heater" && args[0] != "snr")) {
    std::cerr << "usage: golden_figures heater|snr DIR\n";
    return 2;
  }
  try {
    if (args[0] == "heater") {
      write_heater_figures(args[1]);
    } else {
      write_snr_figure(args[1]);
    }
  } catch (const std::exception& e) {
    std::cerr << "golden_figures: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
