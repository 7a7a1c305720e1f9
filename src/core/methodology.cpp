#include "core/methodology.hpp"

#include <algorithm>
#include <cmath>
#include <ios>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace photherm::core {

using geometry::BlockKind;
using geometry::Box3;
using geometry::Vec3;

const OniThermalReport& ThermalReport::hottest() const {
  PH_REQUIRE(!onis.empty(), "thermal report has no ONIs");
  const OniThermalReport* hottest = &onis.front();
  for (const OniThermalReport& r : onis) {
    if (r.average > hottest->average) {
      hottest = &r;
    }
  }
  return *hottest;
}

Table ThermalReport::to_table() const {
  Table table({"ONI", "avg T (degC)", "gradient (degC)", "VCSEL avg", "MR avg", "VCSEL-MR"});
  for (const OniThermalReport& r : onis) {
    table.add_row({static_cast<double>(r.oni), r.average, r.gradient, r.vcsel_average,
                   r.mr_average, r.vcsel_to_mr});
  }
  return table;
}

Table SnrReport::to_table() const {
  Table table({"src", "dst", "wg", "ch", "OPnet (mW)", "signal (mW)", "crosstalk (mW)",
               "SNR (dB)", "detectable"});
  for (const noc::CommResult& c : network.comms) {
    table.add_row({static_cast<double>(c.comm.src), static_cast<double>(c.comm.dst),
                   static_cast<double>(c.comm.waveguide), static_cast<double>(c.comm.channel),
                   c.op_net * 1e3, c.signal_power * 1e3, c.crosstalk_power * 1e3, c.snr_db,
                   std::string(c.detectable ? "yes" : "NO")});
  }
  return table;
}

bool DesignReport::gradient_ok() const { return thermal.max_gradient < 1.0; }

bool DesignReport::links_ok() const {
  return !snr || snr->network.undetectable_count == 0;
}

ThermalAwareDesigner::ThermalAwareDesigner(OnocDesignSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

soc::SccSystem ThermalAwareDesigner::build_system() const {
  soc::SccBuilder builder(spec_.package, spec_.oni_layout);
  builder.set_activity(spec_.activity, spec_.chip_power).set_seed(spec_.seed);

  soc::OniPowerConfig power;
  power.p_vcsel = spec_.p_vcsel;
  power.p_driver = spec_.p_driver();
  power.p_heater = spec_.p_heater();
  power.active_tx_per_waveguide = spec_.active_tx_per_waveguide;
  builder.set_oni_power(power);

  if (spec_.placement == OniPlacementMode::kRing) {
    const soc::RingCase rc =
        soc::ring_case(spec_.ring_case_id, spec_.package.die_x, spec_.package.die_y);
    for (const soc::RingSite& site : rc.sites) {
      builder.add_oni(site.center.x, site.center.y);
    }
  } else {
    for (std::size_t j = 0; j < spec_.package.tiles_y; ++j) {
      for (std::size_t i = 0; i < spec_.package.tiles_x; ++i) {
        builder.add_oni_on_tile(i, j);
      }
    }
  }
  return builder.build();
}

thermal::BoundarySet ThermalAwareDesigner::boundary_conditions() const {
  return thermal::BoundarySet::package(spec_.package.h_top, spec_.package.h_bottom,
                                       spec_.package.t_ambient);
}

mesh::MeshOptions ThermalAwareDesigner::global_mesh_options() const {
  mesh::MeshOptions options;
  options.default_max_cell_xy = spec_.global_cell_xy;
  options.min_feature_size_xy = 200e-6;  // skip device geometry at chip scale
  return options;
}

namespace {

/// Options of the fine per-ONI windows (before the ONI's own refinement).
thermal::TwoLevelOptions window_options(const OnocDesignSpec& spec) {
  thermal::TwoLevelOptions options;
  options.local_mesh.default_max_cell_xy = 25e-6;
  options.local_mesh.min_feature_size_xy = 0.0;
  options.window_margin = spec.window_margin;
  return options;
}

/// Average temperature over a set of device blocks (volume-weighted by
/// block; blocks of one ONI have equal volumes per kind).
double average_over_blocks(const thermal::ThermalField& field,
                           const std::vector<const geometry::Block*>& blocks) {
  PH_REQUIRE(!blocks.empty(), "no device blocks to average over");
  double acc = 0.0;
  for (const geometry::Block* b : blocks) {
    acc += field.average_in(b->box);
  }
  return acc / static_cast<double>(blocks.size());
}

/// Spread between the per-device average temperatures of the lasers and
/// rings of one ONI — the paper's intra-interface "gradient temperature"
/// (the quantity the MR heaters must keep below 1 degC so that a single
/// run-time calibration covers the whole interface).
double device_gradient(const thermal::ThermalField& field,
                       const std::vector<const geometry::Block*>& vcsels,
                       const std::vector<const geometry::Block*>& rings) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto* list : {&vcsels, &rings}) {
    for (const geometry::Block* b : *list) {
      const double t = field.average_in(b->box);
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  }
  PH_REQUIRE(lo <= hi, "no devices found for the gradient evaluation");
  return hi - lo;
}

/// Stable spelling of a double for the scene key: hexfloat is exact, so two
/// scenes serialize identically iff every number is bit-identical.
void key_number(std::ostream& os, double value) { os << std::hexfloat << value << '|'; }

void key_box(std::ostream& os, const Box3& box) {
  for (const double v : {box.lo.x, box.lo.y, box.lo.z, box.hi.x, box.hi.y, box.hi.z}) {
    key_number(os, v);
  }
}

void key_mesh(std::ostream& os, const mesh::MeshOptions& options) {
  os << options.background_material << '|' << options.max_cells << '|';
  key_number(os, options.default_max_cell_xy);
  key_number(os, options.default_max_cell_z);
  key_number(os, options.min_feature_size_xy);
  for (const mesh::RefinementBox& refine : options.refinements) {
    key_box(os, refine.box);
    key_number(os, refine.max_cell_xy);
    key_number(os, refine.max_cell_z);
  }
}

/// Fine pass of one interface: solve the local window around
/// `global.system.onis[slot]` on the coarse field and extract its
/// temperatures.
OniThermalReport evaluate_oni(const ThermalAwareDesigner& designer,
                              const CoarseGlobalSolve& global, std::size_t slot) {
  const OnocDesignSpec& spec = designer.spec();
  const soc::SccSystem& system = global.system;
  const soc::OniInstance& oni = system.onis[slot];

  // Fine window around this interface; refinement box = the footprint.
  thermal::TwoLevelOptions options = window_options(spec);
  mesh::RefinementBox refine;
  refine.box =
      Box3::make({oni.footprint.lo.x, oni.footprint.lo.y, system.z.beol_lo},
                 {oni.footprint.hi.x, oni.footprint.hi.y, system.z.optical_hi + 5e-6});
  refine.max_cell_xy = spec.oni_cell_xy;
  refine.max_cell_z = spec.oni_cell_z;
  options.local_mesh.refinements.push_back(refine);

  const Box3 domain = system.scene.bounding_box();
  const Box3 window = Box3::make({oni.footprint.lo.x, oni.footprint.lo.y, domain.lo.z},
                                 {oni.footprint.hi.x, oni.footprint.hi.y, domain.hi.z});
  const thermal::ThermalField local_field = thermal::solve_local_window(
      system.scene, designer.boundary_conditions(), global.field, window, options);

  const auto vcsels = system.scene.find(BlockKind::kVcsel, oni.index);
  const auto rings = system.scene.find(BlockKind::kMicroRing, oni.index);
  OniThermalReport r;
  r.oni = oni.index;
  r.average = local_field.average_in(oni.footprint);
  r.gradient = device_gradient(local_field, vcsels, rings);
  r.peak_spread = local_field.spread_in(oni.footprint);
  r.vcsel_average = average_over_blocks(local_field, vcsels);
  r.mr_average = average_over_blocks(local_field, rings);
  r.vcsel_to_mr = r.vcsel_average - r.mr_average;
  return r;
}

/// Fold per-ONI window reports (in slot order) into the thermal report:
/// chip average from the coarse field, ONI mean/spread and the worst
/// gradient.
ThermalReport summarize(const OnocDesignSpec& spec, const CoarseGlobalSolve& global,
                        std::vector<OniThermalReport> onis) {
  const soc::SccSystem& system = global.system;
  ThermalReport report;
  const Box3 heat_box = Box3::make({0.0, 0.0, system.z.heat_lo},
                                   {spec.package.die_x, spec.package.die_y, system.z.heat_hi});
  report.chip_average = global.field.average_in(heat_box);
  report.onis = std::move(onis);

  std::vector<double> averages;
  report.max_gradient = 0.0;
  for (const OniThermalReport& r : report.onis) {
    averages.push_back(r.average);
    report.max_gradient = std::max(report.max_gradient, r.gradient);
  }
  report.oni_average = mean(averages);
  report.oni_spread = spread(averages);
  return report;
}

/// Partition of `[0, n)` into groups: the group of every index, and the
/// first index of every group in first-appearance order.
struct Grouping {
  std::vector<std::size_t> group_of;
  std::vector<std::size_t> first;
};

/// Group indices by equal `key_of(i)`; with `share` off or a single index
/// every index is its own group and no key is computed.
template <typename KeyFn>
Grouping group_by(std::size_t n, bool share, const KeyFn& key_of) {
  Grouping grouping;
  grouping.group_of.resize(n);
  std::unordered_map<std::string, std::size_t> group_index;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t group = grouping.first.size();
    if (share && n > 1) {
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

std::string ThermalAwareDesigner::make_global_key(const soc::SccSystem& system) const {
  std::ostringstream os;
  const auto num = [&os](double v) { key_number(os, v); };

  const thermal::BoundarySet bcs = boundary_conditions();
  os << "bcs:";
  for (const thermal::FaceBc& bc : bcs.faces) {
    os << static_cast<int>(bc.kind) << '|';
    num(bc.h);
    num(bc.t_ambient);
    num(bc.t_wall);
  }

  os << "mesh:";
  key_mesh(os, global_mesh_options());

  os << "scene:";
  const geometry::MaterialLibrary& materials = system.scene.materials();
  for (const geometry::Block& block : system.scene.blocks()) {
    const geometry::Material& mat = materials.get(block.material);
    os << block.name << '|' << static_cast<int>(block.kind) << '|' << block.group << '|'
       << mat.name << '|';
    key_box(os, block.box);
    num(block.power);
    num(mat.conductivity);
    num(mat.density);
    num(mat.specific_heat);
  }

  os << "onis:";
  for (const soc::OniInstance& oni : system.onis) {
    os << oni.index << '|';
    key_box(os, oni.footprint);
  }
  return os.str();
}

std::string ThermalAwareDesigner::global_scene_key() const {
  return make_global_key(build_system());
}

std::string ThermalAwareDesigner::thermal_key() const {
  const soc::SccSystem system = build_system();
  std::ostringstream os;
  os << make_global_key(system) << "fine:";
  const thermal::TwoLevelOptions options = window_options(spec_);
  key_mesh(os, options.local_mesh);
  key_number(os, options.window_margin);
  key_number(os, spec_.oni_cell_xy);
  key_number(os, spec_.oni_cell_z);
  // Extents evaluate_oni cuts its refinement box from and summarize() its
  // chip-average box from.
  for (const double v : {system.z.beol_lo, system.z.optical_hi, system.z.heat_lo,
                         system.z.heat_hi, spec_.package.die_x, spec_.package.die_y}) {
    key_number(os, v);
  }
  return os.str();
}

CoarseGlobalSolve ThermalAwareDesigner::solve_global() const {
  soc::SccSystem system = build_system();
  auto global_mesh = std::make_shared<const mesh::RectilinearMesh>(
      mesh::RectilinearMesh::build(system.scene, global_mesh_options()));
  thermal::ThermalField field =
      thermal::solve_steady_state(std::move(global_mesh), boundary_conditions());
  return CoarseGlobalSolve{std::move(system), std::move(field)};
}

ThermalReport ThermalAwareDesigner::evaluate_thermal(std::optional<int> only_oni) const {
  return std::move(evaluate_thermal_batch({*this}, {}, only_oni).reports.front());
}

SnrReport ThermalAwareDesigner::analyze_snr(const ThermalReport& thermal) const {
  PH_REQUIRE(spec_.placement == OniPlacementMode::kRing,
             "SNR analysis requires a ring placement");
  const soc::RingCase rc =
      soc::ring_case(spec_.ring_case_id, spec_.package.die_x, spec_.package.die_y);
  PH_REQUIRE(thermal.onis.size() == rc.oni_count,
             "thermal report does not cover every ring ONI");

  noc::SnrModelConfig model = make_snr_model(spec_.tech);
  model.channels.channel_count = spec_.wdm_channels;

  // Lasers run hotter than the interface average; use the measured
  // laser-to-ring offset as the self-heating term.
  std::vector<double> offsets;
  std::vector<double> temps(rc.oni_count, 0.0);
  for (const OniThermalReport& r : thermal.onis) {
    PH_REQUIRE(static_cast<std::size_t>(r.oni) < rc.oni_count, "ONI index out of range");
    temps[static_cast<std::size_t>(r.oni)] = r.average;
    offsets.push_back(r.vcsel_average - r.average);
  }
  model.vcsel_self_heating = mean(offsets);

  const noc::RingTopology topology = noc::RingTopology::uniform(rc.oni_count, rc.perimeter);
  const std::size_t fanout = std::min(spec_.fanout, rc.oni_count - 1);
  const auto requests = noc::spread_requests(rc.oni_count, fanout);
  const noc::OrnocAssigner assigner(rc.oni_count, spec_.waveguides, spec_.wdm_channels);
  const auto comms = assigner.assign(requests);

  const noc::SnrAnalyzer analyzer(topology, model);
  SnrReport report;
  report.network = analyzer.analyze(comms, temps, noc::CommDrive{spec_.p_vcsel});
  report.waveguide_length = rc.perimeter;
  report.oni_count = rc.oni_count;
  return report;
}

DesignReport ThermalAwareDesigner::design_report(ThermalReport thermal) const {
  DesignReport report;
  report.spec = spec_;
  report.thermal = std::move(thermal);
  if (spec_.placement == OniPlacementMode::kRing) {
    report.snr = analyze_snr(report.thermal);
  }
  return report;
}

DesignReport ThermalAwareDesigner::run() const { return design_report(evaluate_thermal()); }

ThermalBatch evaluate_thermal_batch(const std::vector<ThermalAwareDesigner>& designers,
                                    const std::function<std::string(std::size_t)>& label,
                                    std::optional<int> only_oni, bool share,
                                    std::size_t threads) {
  PH_REQUIRE(!designers.empty(), "no design points to evaluate");
  const std::size_t n = designers.size();
  const auto name = [&label](std::size_t i) { return label ? label(i) : std::string(); };
  const auto guarded = [&](std::size_t i, const auto& fn) {
    if (label) {
      with_error_context("scenario `" + label(i) + "`", fn);
    } else {
      fn();
    }
  };

  // Group designs into thermal problems, and those into global scenes.
  // Keys serialize everything the solves read, so equal keys guarantee the
  // shared field and report are bit-identical to the ones a cold solve
  // would produce; equal thermal keys imply equal global keys.
  const Grouping problems =
      group_by(n, share, [&](std::size_t i) { return designers[i].thermal_key(); });
  const std::size_t problem_count = problems.first.size();
  const Grouping scenes = group_by(problem_count, share, [&](std::size_t p) {
    return designers[problems.first[p]].global_scene_key();
  });
  const std::size_t scene_count = scenes.first.size();
  PH_LOG_DEBUG << "thermal batch: " << n << " designs over " << problem_count
               << " distinct thermal problems and " << scene_count << " global scenes";

  // Coarse pass: one global solve per distinct scene.
  std::vector<std::optional<CoarseGlobalSolve>> globals(scene_count);
  util::parallel_for(
      scene_count, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t g = begin; g < end; ++g) {
          const std::size_t i = problems.first[scenes.first[g]];
          telemetry::Span span("batch.global_solve", name(i));
          guarded(i, [&] { globals[g] = designers[i].solve_global(); });
        }
      },
      threads);
  const auto global_of = [&](std::size_t p) -> const CoarseGlobalSolve& {
    return *globals[scenes.group_of[p]];
  };

  // Fine pass: every ONI window of every distinct thermal problem is one
  // task of a single flat region, so the pool stays busy across problem
  // boundaries. Windows land at their (problem, position) index.
  std::vector<std::vector<std::size_t>> slots(problem_count);
  std::vector<std::vector<OniThermalReport>> onis(problem_count);
  std::vector<std::pair<std::size_t, std::size_t>> windows;  // (problem, position)
  for (std::size_t p = 0; p < problem_count; ++p) {
    const std::vector<soc::OniInstance>& instances = global_of(p).system.onis;
    for (std::size_t slot = 0; slot < instances.size(); ++slot) {
      if (!only_oni || instances[slot].index == *only_oni) {
        windows.emplace_back(p, slots[p].size());
        slots[p].push_back(slot);
      }
    }
    guarded(problems.first[p], [&] {
      PH_REQUIRE(!slots[p].empty(), "no ONI was evaluated (bad only_oni index?)");
    });
    onis[p].resize(slots[p].size());
  }
  util::parallel_for(
      windows.size(), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t w = begin; w < end; ++w) {
          const auto [p, k] = windows[w];
          const CoarseGlobalSolve& global = global_of(p);
          const std::size_t i = problems.first[p];
          telemetry::Span span("batch.window",
                               name(i) + " oni" +
                                   std::to_string(global.system.onis[slots[p][k]].index));
          guarded(i, [&] { onis[p][k] = evaluate_oni(designers[i], global, slots[p][k]); });
        }
      },
      threads);

  // One ThermalReport per thermal problem, handed to each of its designs.
  std::vector<ThermalReport> thermal(problem_count);
  for (std::size_t p = 0; p < problem_count; ++p) {
    const std::size_t i = problems.first[p];
    guarded(i, [&] {
      thermal[p] = summarize(designers[i].spec(), global_of(p), std::move(onis[p]));
    });
  }
  ThermalBatch batch;
  batch.reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.reports.push_back(thermal[problems.group_of[i]]);
  }
  batch.global_solves = scene_count;
  batch.thermal_solves = problem_count;
  return batch;
}

int representative_oni(const OnocDesignSpec& spec) {
  const soc::SccSystem system = ThermalAwareDesigner(spec).build_system();
  PH_REQUIRE(!system.onis.empty(), "no ONI in the system");
  const Vec3 center{spec.package.die_x / 2.0, spec.package.die_y / 2.0, 0.0};
  int representative = system.onis.front().index;
  double best_distance = std::numeric_limits<double>::infinity();
  for (const soc::OniInstance& oni : system.onis) {
    Vec3 c = oni.footprint.center();
    c.z = 0.0;
    const double d = geometry::distance(c, center);
    if (d < best_distance) {
      best_distance = d;
      representative = oni.index;
    }
  }
  return representative;
}

std::vector<HeaterSweepPoint> explore_heater_ratios(const OnocDesignSpec& base,
                                                    const std::vector<double>& ratios) {
  PH_REQUIRE(!ratios.empty(), "no heater ratios to explore");
  std::vector<ThermalAwareDesigner> designers;
  designers.reserve(ratios.size());
  for (const double ratio : ratios) {
    OnocDesignSpec spec = base;
    spec.heater_ratio = ratio;
    designers.emplace_back(std::move(spec));
  }
  const ThermalBatch batch = evaluate_thermal_batch(designers, {}, representative_oni(base));

  std::vector<HeaterSweepPoint> sweep;
  for (std::size_t idx = 0; idx < ratios.size(); ++idx) {
    const OniThermalReport& oni = batch.reports[idx].onis.front();
    const HeaterSweepPoint& point = sweep.emplace_back(HeaterSweepPoint{
        ratios[idx], designers[idx].spec().p_heater(), oni.gradient, oni.average});
    PH_LOG_DEBUG << "heater ratio " << point.heater_ratio << ": gradient " << point.gradient
                 << " degC";
  }
  return sweep;
}

const HeaterSweepPoint& best_heater_point(const std::vector<HeaterSweepPoint>& sweep) {
  PH_REQUIRE(!sweep.empty(), "empty heater sweep");
  const HeaterSweepPoint* best = &sweep.front();
  for (const HeaterSweepPoint& p : sweep) {
    if (p.gradient < best->gradient) {
      best = &p;
    }
  }
  return *best;
}

}  // namespace photherm::core
