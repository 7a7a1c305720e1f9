#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/methodology.hpp"
#include "math/preconditioner.hpp"
#include "math/solvers.hpp"
#include "mesh/mesh.hpp"
#include "thermal/fvm.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using photherm::core::DesignReport;
using photherm::core::OniThermalReport;
using photherm::core::ThermalAwareDesigner;
using photherm::geometry::BlockKind;
using photherm::geometry::Box3;
using photherm::geometry::Vec3;
using photherm::scenario::ScenarioSpec;
using photherm::telemetry::Span;
using photherm::thermal::BoundarySet;
using photherm::thermal::ThermalField;

namespace {

using MeshPtr = std::shared_ptr<const photherm::mesh::RectilinearMesh>;

/// A steady solve as thermal::solve_steady_state does it (CSR operator,
/// preconditioner named by the options, CG from a zero start), split into
/// its layers so each gets a span.
ThermalField solve(MeshPtr mesh, const BoundarySet& bcs,
                   const photherm::thermal::SteadyStateOptions& options, SolveRecord& record) {
  PH_REQUIRE(options.operator_kind == photherm::thermal::OperatorKind::kCsr,
             "the replay drives the CSR operator only");
  std::optional<photherm::thermal::DiscreteSystem> system;
  {
    Span span("thermal.assemble");
    system.emplace(photherm::thermal::assemble(*mesh, bcs));
  }
  std::unique_ptr<photherm::math::Preconditioner> precond;
  {
    Span span("math.precond_build");
    precond = photherm::math::make_preconditioner(options.solver.preconditioner, system->matrix,
                                                  options.solver.chebyshev);
  }
  photherm::math::Vector t(mesh->cell_count(), 0.0);
  {
    Span span("math.cg");
    const photherm::math::SolverResult result = photherm::math::conjugate_gradient(
        system->matrix, system->rhs, t, *precond, options.solver);
    record.iterations = result.iterations;
  }
  record.cells = mesh->cell_count();
  record.nnz = system->matrix.nnz();
  return ThermalField(std::move(mesh), std::move(t));
}

/// Shell boundary conditions of a local window, as thermal::
/// solve_local_window sets them: faces on the package boundary keep the
/// package BC, cut faces sample the coarse field.
BoundarySet window_boundaries(const BoundarySet& global_bcs, const Box3& global_domain,
                              const Box3& window, const ThermalField& global_field) {
  const auto near = [](double a, double b) { return std::abs(a - b) < 1e-9; };
  const double local[6] = {window.lo.x, window.hi.x, window.lo.y,
                           window.hi.y, window.lo.z, window.hi.z};
  const double global[6] = {global_domain.lo.x, global_domain.hi.x, global_domain.lo.y,
                            global_domain.hi.y, global_domain.lo.z, global_domain.hi.z};
  BoundarySet bcs;
  for (int f = 0; f < 6; ++f) {
    bcs.faces[f] = near(local[f], global[f])
                       ? global_bcs.faces[f]
                       : photherm::thermal::FaceBc::dirichlet_field(
                             [&global_field](const Vec3& p) { return global_field.at(p); });
  }
  return bcs;
}

double average_over(const ThermalField& field,
                    const std::vector<const photherm::geometry::Block*>& blocks) {
  double acc = 0.0;
  for (const photherm::geometry::Block* b : blocks) {
    acc += field.average_in(b->box);
  }
  return acc / static_cast<double>(blocks.size());
}

/// A solved field kept (outside every span) until the replay ends, when its
/// energy balance is checked.
struct Solved {
  SolveRecord record;
  std::optional<ThermalField> field;
  BoundarySet bcs;
};

/// One ONI window of ThermalAwareDesigner::evaluate_oni_window: mesh the
/// footprint (+ margin) at device resolution, solve with coarse-field
/// shells, then reduce the field to the ONI's report.
OniThermalReport oni_window(const ThermalAwareDesigner& designer,
                            const photherm::soc::SccSystem& system, const BoundarySet& bcs,
                            const photherm::soc::OniInstance& oni,
                            const ThermalField& global_field, Solved& solved) {
  const photherm::core::OnocDesignSpec& spec = designer.spec();
  const photherm::thermal::SteadyStateOptions solver_options;
  {
    Span window_span("thermal.window_solve");
    photherm::mesh::MeshOptions mesh_options;
    mesh_options.default_max_cell_xy = 25e-6;
    mesh_options.min_feature_size_xy = 0.0;
    mesh_options.refinements.push_back(photherm::mesh::RefinementBox{
        Box3::make({oni.footprint.lo.x, oni.footprint.lo.y, system.z.beol_lo},
                   {oni.footprint.hi.x, oni.footprint.hi.y, system.z.optical_hi + 5e-6}),
        spec.oni_cell_xy, spec.oni_cell_z});

    const Box3 domain = system.scene.bounding_box();
    Box3 window = Box3::make({oni.footprint.lo.x, oni.footprint.lo.y, domain.lo.z},
                             {oni.footprint.hi.x, oni.footprint.hi.y, domain.hi.z});
    window.lo.x = std::max(domain.lo.x, window.lo.x - spec.window_margin);
    window.lo.y = std::max(domain.lo.y, window.lo.y - spec.window_margin);
    window.hi.x = std::min(domain.hi.x, window.hi.x + spec.window_margin);
    window.hi.y = std::min(domain.hi.y, window.hi.y + spec.window_margin);

    solved.bcs = window_boundaries(bcs, domain, window, global_field);
    MeshPtr mesh;
    {
      Span span("mesh.build");
      mesh = std::make_shared<const photherm::mesh::RectilinearMesh>(
          photherm::mesh::RectilinearMesh::build(system.scene, window, mesh_options));
    }
    solved.field.emplace(solve(std::move(mesh), solved.bcs, solver_options, solved.record));
  }
  solved.record.window = true;
  const ThermalField& local = *solved.field;

  Span span("thermal.field_query");
  const auto vcsels = system.scene.find(BlockKind::kVcsel, oni.index);
  const auto rings = system.scene.find(BlockKind::kMicroRing, oni.index);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto* list : {&vcsels, &rings}) {
    for (const photherm::geometry::Block* b : *list) {
      const double t = local.average_in(b->box);
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  }
  PH_REQUIRE(lo <= hi, "no devices found for the gradient evaluation");
  OniThermalReport r;
  r.oni = oni.index;
  r.average = local.average_in(oni.footprint);
  r.gradient = hi - lo;
  r.peak_spread = local.spread_in(oni.footprint);
  r.vcsel_average = average_over(local, vcsels);
  r.mr_average = average_over(local, rings);
  r.vcsel_to_mr = r.vcsel_average - r.mr_average;
  return r;
}

/// The product of one coarse pass, shared read-only by its group.
struct Coarse {
  std::optional<photherm::soc::SccSystem> system;
  Solved solved;
};

}  // namespace

double energy_imbalance(const ThermalField& field, const BoundarySet& bcs) {
  const double injected = field.mesh().total_power();
  const double outflow = photherm::thermal::boundary_heat_flow(field, bcs);
  return std::abs(outflow - injected) / std::max(std::abs(injected), 1e-300);
}

CornersReplay replay_corners(const std::vector<ScenarioSpec>& scenarios, std::size_t budget) {
  PH_REQUIRE(!scenarios.empty(), "batch has no scenarios");
  const std::size_t n = scenarios.size();
  const auto start = std::chrono::steady_clock::now();

  // Designers and scene keys, grouped as BatchRunner groups them.
  std::vector<ThermalAwareDesigner> designers;
  std::vector<std::size_t> group_of(n);
  std::vector<std::size_t> representative;
  {
    Span root("core.prepare");
    designers.reserve(n);
    for (const ScenarioSpec& s : scenarios) {
      designers.emplace_back(s.effective_design());
    }
    std::unordered_map<std::string, std::size_t> group_index;
    for (std::size_t i = 0; i < n; ++i) {
      std::string key;
      {
        Span span("core.scene_key");
        key = designers[i].global_scene_key();
      }
      const auto [it, fresh] = group_index.try_emplace(std::move(key), representative.size());
      if (fresh) {
        representative.push_back(i);
      }
      group_of[i] = it->second;
    }
  }

  // Coarse pass: one package solve per distinct scene.
  std::vector<Coarse> coarse(representative.size());
  photherm::util::parallel_for(
      representative.size(), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t g = begin; g < end; ++g) {
          const ThermalAwareDesigner& designer = designers[representative[g]];
          Span root("core.global_solve", scenarios[representative[g]].name.c_str());
          {
            Span span("soc.build_system");
            coarse[g].system.emplace(designer.build_system());
          }
          MeshPtr mesh;
          {
            Span span("mesh.build");
            mesh = std::make_shared<const photherm::mesh::RectilinearMesh>(
                photherm::mesh::RectilinearMesh::build(coarse[g].system->scene,
                                                       designer.global_mesh_options()));
          }
          Solved& solved = coarse[g].solved;
          solved.bcs = designer.boundary_conditions();
          solved.field.emplace(solve(std::move(mesh), solved.bcs,
                                     photherm::thermal::SteadyStateOptions{}, solved.record));
        }
      },
      budget);

  // Fine pass: every point refines its ONI windows on its group's field.
  CornersReplay out;
  out.result.reports.resize(n);
  std::vector<std::vector<Solved>> windows(n);
  photherm::util::parallel_for(
      n, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          Span root("core.point", scenarios[i].name.c_str());
          const ThermalAwareDesigner& designer = designers[i];
          const Coarse& global = coarse[group_of[i]];
          const photherm::soc::SccSystem& system = *global.system;
          const BoundarySet bcs = designer.boundary_conditions();

          DesignReport& report = out.result.reports[i];
          report.spec = designer.spec();
          {
            Span span("thermal.field_query");
            const Box3 heat_box =
                Box3::make({0.0, 0.0, system.z.heat_lo},
                           {report.spec.package.die_x, report.spec.package.die_y,
                            system.z.heat_hi});
            report.thermal.chip_average = global.solved.field->average_in(heat_box);
          }
          // Windows as evaluate_thermal runs them: a nested region at the
          // process budget, results at their ONI's slot.
          report.thermal.onis.resize(system.onis.size());
          windows[i].resize(system.onis.size());
          photherm::util::parallel_for(
              system.onis.size(), 1, [&](std::size_t w_begin, std::size_t w_end) {
                for (std::size_t w = w_begin; w < w_end; ++w) {
                  report.thermal.onis[w] = oni_window(designer, system, bcs, system.onis[w],
                                                      *global.solved.field, windows[i][w]);
                }
              });
          std::vector<double> averages;
          for (const OniThermalReport& r : report.thermal.onis) {
            averages.push_back(r.average);
            report.thermal.max_gradient = std::max(report.thermal.max_gradient, r.gradient);
          }
          report.thermal.oni_average = photherm::mean(averages);
          report.thermal.oni_spread = photherm::spread(averages);
          if (report.spec.placement == photherm::core::OniPlacementMode::kRing) {
            Span span("noc.snr");
            report.snr = designer.analyze_snr(report.thermal);
          }
        }
      },
      budget);

  out.result.stats.scenario_count = n;
  out.result.stats.global_solves = representative.size();
  out.result.stats.cache_hits = n - representative.size();
  out.traced_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // Energy balance of every solved field, after the traced work: the
  // windows' shells still sample the coarse fields, which live until here.
  const auto balance = [](Solved& s) {
    s.record.imbalance = energy_imbalance(*s.field, s.bcs);
    return s.record;
  };
  for (Coarse& c : coarse) {
    out.solves.push_back(balance(c.solved));
  }
  out.point_imbalance.resize(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    out.point_imbalance[i] = coarse[group_of[i]].solved.record.imbalance;
    for (Solved& w : windows[i]) {
      out.solves.push_back(balance(w));
      out.point_imbalance[i] = std::max(out.point_imbalance[i], w.record.imbalance);
    }
  }
  return out;
}

photherm::timeline::TimelineBatchResult replay_transient(
    const std::vector<ScenarioSpec>& scenarios,
    const photherm::timeline::PlaybackOptions& options) {
  PH_REQUIRE(!scenarios.empty(), "timeline batch has no scenarios");
  photherm::timeline::TimelineBatchResult result;
  result.stats.scenario_count = scenarios.size();
  for (const ScenarioSpec& s : scenarios) {
    s.design.validate();
  }
  for (const ScenarioSpec& s : scenarios) {
    Span root("timeline.playback", s.name.c_str());
    std::optional<photherm::timeline::Playback> playback;
    {
      Span span("timeline.setup");
      playback.emplace(s, options);
    }
    while (!playback->finished()) {
      Span span("timeline.step");
      playback->run(1);
    }
    result.traces.push_back(playback->take_trace());
    const photherm::timeline::TimelineTrace& trace = result.traces.back();
    result.stats.total_steps += trace.step_count();
    result.stats.total_cg_iterations += trace.stats.total_cg_iterations;
    result.stats.settled_count += trace.settled ? 1 : 0;
    result.stats.periodic_count += trace.periodic_steady ? 1 : 0;
  }
  return result;
}

SolveRecord transient_system_size(const ScenarioSpec& scenario) {
  const ThermalAwareDesigner designer(scenario.design);
  const photherm::mesh::RectilinearMesh mesh = photherm::mesh::RectilinearMesh::build(
      designer.build_system().scene, designer.global_mesh_options());
  SolveRecord record;
  record.cells = mesh.cell_count();
  record.nnz = photherm::thermal::assemble(mesh, designer.boundary_conditions()).matrix.nnz();
  return record;
}

}  // namespace perfbench
