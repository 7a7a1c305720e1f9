/// Property-based suites: physical invariants checked across randomised
/// configurations (seeded, reproducible).
#include <gtest/gtest.h>

#include "core/tech.hpp"
#include "geometry/stack.hpp"
#include "noc/snr.hpp"
#include "thermal/fvm.hpp"
#include "util/rng.hpp"

namespace photherm {
namespace {

using geometry::Block;
using geometry::Box3;
using geometry::Scene;

// ---------------------------------------------------------------------------
// Thermal invariants on randomised scenes.
// ---------------------------------------------------------------------------

class ThermalProperties : public ::testing::TestWithParam<std::uint64_t> {};

Scene random_scene(Rng& rng, double* total_power) {
  Scene scene;
  geometry::LayerStackBuilder stack(2e-3, 2e-3);
  stack.add_layer({"bulk", "silicon", 200e-6});
  stack.add_layer({"ox", "silicon_dioxide", 20e-6});
  stack.emit(scene);
  const int sources = rng.uniform_int(1, 5);
  *total_power = 0.0;
  for (int s = 0; s < sources; ++s) {
    const double x = rng.uniform(0.1e-3, 1.5e-3);
    const double y = rng.uniform(0.1e-3, 1.5e-3);
    const double w = rng.uniform(0.1e-3, 0.4e-3);
    Block heat;
    heat.name = "src" + std::to_string(s);
    heat.box = Box3::make({x, y, 0}, {x + w, y + w, 30e-6});
    heat.material = scene.materials().id_of("silicon");
    heat.power = rng.uniform(0.05, 0.5);
    *total_power += heat.power;
    scene.add(std::move(heat));
  }
  return scene;
}

TEST_P(ThermalProperties, EnergyBalanceAndMaximumPrinciple) {
  Rng rng(GetParam());
  double total_power = 0.0;
  const Scene scene = random_scene(rng, &total_power);

  thermal::BoundarySet bcs;
  const double t_amb = rng.uniform(20.0, 45.0);
  bcs[thermal::Face::kZMax] = thermal::FaceBc::convection(rng.uniform(2e3, 2e4), t_amb);

  mesh::MeshOptions options;
  options.default_max_cell_xy = 100e-6;
  const auto field =
      thermal::solve_steady_state(mesh::RectilinearMesh::build(scene, options), bcs);

  // Energy balance: all injected power leaves through the boundary.
  EXPECT_NEAR(thermal::boundary_heat_flow(field, bcs), total_power,
              1e-6 * std::max(1.0, total_power));
  // Maximum principle: with positive sources and one ambient sink, every
  // temperature lies above ambient and the maximum is interior.
  EXPECT_GE(field.global_min(), t_amb - 1e-9);
  EXPECT_GT(field.global_max(), t_amb);
}

TEST_P(ThermalProperties, LinearityInPower) {
  // Conduction is linear: scaling every source by s scales all rises by s.
  Rng rng(GetParam());
  double total_power = 0.0;
  Scene scene = random_scene(rng, &total_power);

  thermal::BoundarySet bcs;
  bcs[thermal::Face::kZMax] = thermal::FaceBc::convection(5e3, 30.0);
  mesh::MeshOptions options;
  options.default_max_cell_xy = 200e-6;

  const auto base =
      thermal::solve_steady_state(mesh::RectilinearMesh::build(scene, options), bcs);

  Scene doubled;
  geometry::LayerStackBuilder stack(2e-3, 2e-3);
  stack.add_layer({"bulk", "silicon", 200e-6});
  stack.add_layer({"ox", "silicon_dioxide", 20e-6});
  stack.emit(doubled);
  for (const Block& b : scene.blocks()) {
    if (b.power > 0.0) {
      Block copy = b;
      copy.power *= 2.0;
      doubled.add(std::move(copy));
    }
  }
  const auto twice =
      thermal::solve_steady_state(mesh::RectilinearMesh::build(doubled, options), bcs);
  EXPECT_NEAR(twice.global_max() - 30.0, 2.0 * (base.global_max() - 30.0), 1e-6);
}

TEST_P(ThermalProperties, ShiftInAmbient) {
  // Conduction is linear in the boundary temperatures too: raising every
  // wall and ambient temperature by d shifts every cell by exactly d.
  Rng rng(GetParam());
  double total_power = 0.0;
  const Scene scene = random_scene(rng, &total_power);
  mesh::MeshOptions options;
  options.default_max_cell_xy = 200e-6;
  const auto mesh =
      std::make_shared<const mesh::RectilinearMesh>(mesh::RectilinearMesh::build(scene, options));

  auto solve_at = [&](double t_amb) {
    thermal::BoundarySet bcs;
    bcs[thermal::Face::kZMax] = thermal::FaceBc::convection(5e3, t_amb);
    bcs[thermal::Face::kZMin] = thermal::FaceBc::dirichlet(t_amb);
    return thermal::solve_steady_state(mesh, bcs);
  };
  const auto cool = solve_at(25.0);
  const auto hot = solve_at(85.0);
  for (std::size_t cell = 0; cell < mesh->cell_count(); ++cell) {
    ASSERT_NEAR(hot.temperatures()[cell] - cool.temperatures()[cell], 60.0, 1e-6)
        << "cell " << cell;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThermalProperties,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---------------------------------------------------------------------------
// Optical power conservation in the SNR engine.
// ---------------------------------------------------------------------------

class SnrProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnrProperties, ReceivedPowerNeverExceedsInjected) {
  Rng rng(GetParam());
  const std::size_t nodes = static_cast<std::size_t>(rng.uniform_int(4, 12));
  const noc::RingTopology ring =
      noc::RingTopology::uniform(nodes, rng.uniform(10e-3, 50e-3));
  const noc::OrnocAssigner assigner(nodes, 4, 8);
  const auto comms =
      assigner.assign(noc::spread_requests(nodes, static_cast<std::size_t>(
                                                      rng.uniform_int(1, 3))));

  std::vector<double> temps(nodes);
  for (double& t : temps) {
    t = rng.uniform(45.0, 65.0);
  }

  const noc::SnrAnalyzer analyzer(ring, core::make_snr_model());
  const auto result = analyzer.analyze(comms, temps, noc::CommDrive{3.6e-3});

  double injected = 0.0;
  double received_signal = 0.0;
  double received_crosstalk = 0.0;
  for (const auto& c : result.comms) {
    EXPECT_LE(c.signal_power, c.op_net + 1e-15);
    EXPECT_GE(c.signal_power, 0.0);
    EXPECT_GE(c.crosstalk_power, 0.0);
    injected += c.op_net;
    received_signal += c.signal_power;
    received_crosstalk += c.crosstalk_power;
  }
  // Global passivity: nothing is amplified anywhere.
  EXPECT_LE(received_signal + received_crosstalk, injected + 1e-15);
}

TEST_P(SnrProperties, UniformTemperatureIsOptimal) {
  // Any temperature skew can only reduce the worst-case SNR relative to
  // the same network at uniform temperature.
  Rng rng(GetParam());
  const std::size_t nodes = 8;
  const noc::RingTopology ring = noc::RingTopology::uniform(nodes, 32.4e-3);
  const noc::OrnocAssigner assigner(nodes, 4, 8);
  const auto comms = assigner.assign(noc::spread_requests(nodes, 3));
  const noc::SnrAnalyzer analyzer(ring, core::make_snr_model());

  const double base = 55.0;
  const auto uniform =
      analyzer.analyze(comms, std::vector<double>(nodes, base), noc::CommDrive{3.6e-3});
  std::vector<double> skewed(nodes);
  for (double& t : skewed) {
    t = base + rng.uniform(-4.0, 4.0);
  }
  const auto perturbed = analyzer.analyze(comms, skewed, noc::CommDrive{3.6e-3});
  EXPECT_LE(perturbed.worst_snr_db, uniform.worst_snr_db + 0.75);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnrProperties, ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---------------------------------------------------------------------------
// Mesh invariants under random refinement.
// ---------------------------------------------------------------------------

class MeshProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeshProperties, PowerConservedUnderAnyRefinement) {
  Rng rng(GetParam());
  double total_power = 0.0;
  const Scene scene = random_scene(rng, &total_power);
  mesh::MeshOptions options;
  options.default_max_cell_xy = rng.uniform(100e-6, 600e-6);
  if (rng.uniform_int(0, 1) == 1) {
    mesh::RefinementBox refine;
    const double x = rng.uniform(0.2e-3, 1.2e-3);
    refine.box = Box3::make({x, x, 0}, {x + 0.4e-3, x + 0.4e-3, 220e-6});
    refine.max_cell_xy = rng.uniform(10e-6, 50e-6);
    refine.max_cell_z = 0.0;
    options.refinements.push_back(refine);
  }
  const auto mesh = mesh::RectilinearMesh::build(scene, options);
  EXPECT_NEAR(mesh.total_power(), total_power, 1e-9 * std::max(1.0, total_power));

  // Cell geometry tiles the domain exactly.
  double volume = 0.0;
  for (std::size_t iz = 0; iz < mesh.nz(); ++iz) {
    for (std::size_t iy = 0; iy < mesh.ny(); ++iy) {
      for (std::size_t ix = 0; ix < mesh.nx(); ++ix) {
        volume += mesh.cell_volume(ix, iy, iz);
      }
    }
  }
  EXPECT_NEAR(volume, scene.bounding_box().volume(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeshProperties,
                         ::testing::Values(7u, 17u, 27u, 37u, 47u, 57u));

}  // namespace
}  // namespace photherm
