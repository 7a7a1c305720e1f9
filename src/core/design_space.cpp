#include "core/design_space.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"

namespace photherm::core {

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  PH_REQUIRE(count >= 2, "linspace needs at least two points");
  PH_REQUIRE(hi > lo, "linspace range must be increasing");
  std::vector<double> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(count - 1);
  }
  return out;
}

std::vector<AvgTemperaturePoint> sweep_vcsel_chip_power(const OnocDesignSpec& base,
                                                        const std::vector<double>& p_chip,
                                                        const std::vector<double>& p_vcsel) {
  PH_REQUIRE(!p_chip.empty() && !p_vcsel.empty(), "empty sweep axes");
  std::vector<ThermalAwareDesigner> designers;
  designers.reserve(p_chip.size() * p_vcsel.size());
  for (const double chip : p_chip) {
    for (const double vcsel : p_vcsel) {
      OnocDesignSpec spec = base;
      spec.chip_power = chip;
      spec.p_vcsel = vcsel;
      designers.emplace_back(std::move(spec));
    }
  }
  // The powers move no interface, so one representative serves the grid.
  const ThermalBatch batch = evaluate_thermal_batch(designers, {}, representative_oni(base));

  std::vector<AvgTemperaturePoint> out;
  for (std::size_t idx = 0; idx < designers.size(); ++idx) {
    const OnocDesignSpec& spec = designers[idx].spec();
    const OniThermalReport& oni = batch.reports[idx].onis.front();
    const AvgTemperaturePoint& row = out.emplace_back(
        AvgTemperaturePoint{spec.chip_power, spec.p_vcsel, oni.average, oni.gradient});
    PH_LOG_INFO << "Pchip=" << row.p_chip << " W, PVCSEL=" << row.p_vcsel * 1e3
                << " mW -> avg=" << row.average << " degC, gradient=" << row.gradient;
  }
  return out;
}

std::vector<SnrSweepPoint> sweep_snr(const OnocDesignSpec& base,
                                     const std::vector<int>& ring_cases,
                                     const std::vector<power::ActivityKind>& activities) {
  PH_REQUIRE(!ring_cases.empty() && !activities.empty(), "empty sweep axes");
  std::vector<ThermalAwareDesigner> designers;
  designers.reserve(ring_cases.size() * activities.size());
  for (const power::ActivityKind activity : activities) {
    for (const int rc : ring_cases) {
      OnocDesignSpec spec = base;
      spec.placement = OniPlacementMode::kRing;
      spec.ring_case_id = rc;
      spec.activity = activity;
      designers.emplace_back(std::move(spec));
    }
  }
  ThermalBatch batch = evaluate_thermal_batch(designers);

  std::vector<SnrSweepPoint> out(designers.size());
  for (std::size_t idx = 0; idx < designers.size(); ++idx) {
    const DesignReport report = designers[idx].design_report(std::move(batch.reports[idx]));
    PH_REQUIRE(report.snr.has_value(), "ring run must produce an SNR report");
    SnrSweepPoint& row = out[idx];
    row.ring_case = report.spec.ring_case_id;
    row.waveguide_length = report.snr->waveguide_length;
    row.activity = report.spec.activity;
    row.worst_snr_db = report.snr->network.worst_snr_db;
    const noc::CommResult& worst = report.snr->network.worst_comm();
    row.signal_power = worst.signal_power;
    row.crosstalk_power = worst.crosstalk_power;
    double t_min = report.thermal.onis.front().average;
    double t_max = t_min;
    for (const OniThermalReport& r : report.thermal.onis) {
      t_min = std::min(t_min, r.average);
      t_max = std::max(t_max, r.average);
    }
    row.oni_t_min = t_min;
    row.oni_t_max = t_max;
    PH_LOG_INFO << "case " << row.ring_case << " (" << power::to_string(row.activity)
                << "): worst SNR = " << row.worst_snr_db << " dB";
  }
  return out;
}

}  // namespace photherm::core
