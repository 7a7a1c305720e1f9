#include "thermal/two_level.hpp"

#include <gtest/gtest.h>

#include "geometry/stack.hpp"
#include "util/error.hpp"

namespace photherm::thermal {
namespace {

using geometry::Block;
using geometry::Box3;
using geometry::Scene;

/// A 4 mm die with a 100 um hotspot in the middle: the case where the
/// two-level scheme matters (fine detail inside a big domain).
Scene hotspot_scene() {
  Scene scene;
  geometry::LayerStackBuilder stack(4e-3, 4e-3);
  stack.add_layer({"die", "silicon", 300e-6});
  stack.emit(scene);
  Block heat;
  heat.name = "hotspot";
  heat.box = Box3::make({1.95e-3, 1.95e-3, 0}, {2.05e-3, 2.05e-3, 30e-6});
  heat.material = scene.materials().id_of("silicon");
  heat.power = 0.2;
  scene.add(std::move(heat));
  // Background power elsewhere.
  Block bg;
  bg.name = "background";
  bg.box = Box3::make({0, 0, 0}, {4e-3, 4e-3, 30e-6});
  bg.material = scene.materials().id_of("silicon");
  bg.power = 2.0;
  scene.add(std::move(bg));
  return scene;
}

BoundarySet bcs() {
  BoundarySet set;
  set[Face::kZMax] = FaceBc::convection(5e3, 30.0);
  return set;
}

/// Coarse pass of the two-level scheme: the whole scene on `global_mesh`.
ThermalField solve_global(const Scene& scene, const mesh::MeshOptions& global_mesh) {
  return solve_steady_state(mesh::RectilinearMesh::build(scene, global_mesh), bcs());
}

TEST(TwoLevel, LocalFieldRefinesGlobal) {
  const Scene scene = hotspot_scene();
  mesh::MeshOptions global_mesh;
  global_mesh.default_max_cell_xy = 500e-6;
  TwoLevelOptions options;
  options.local_mesh.default_max_cell_xy = 25e-6;
  options.window_margin = 300e-6;

  const Box3 window = Box3::make({1.9e-3, 1.9e-3, 0}, {2.1e-3, 2.1e-3, 300e-6});
  const ThermalField global_field = solve_global(scene, global_mesh);
  const ThermalField local_field =
      solve_local_window(scene, bcs(), global_field, window, options);

  // The local field genuinely refines the window (more cells)...
  EXPECT_GT(local_field.mesh().cells_in(window).size(),
            global_field.mesh().cells_in(window).size());
  // ...resolves the hotspot above its surroundings...
  const Box3 rim = Box3::make({1.9e-3, 1.9e-3, 250e-6}, {2.1e-3, 2.1e-3, 300e-6});
  EXPECT_GT(local_field.max_in(window), local_field.average_in(rim));

  // ...and stays consistent with the coarse solution (Dirichlet shell):
  // window averages agree within a couple of degrees.
  const double global_avg = global_field.average_in(window);
  const double local_avg = local_field.average_in(window);
  EXPECT_NEAR(local_avg, global_avg, 2.5);
}

TEST(TwoLevel, LocalMatchesSingleLevelFineReference) {
  // On a domain small enough to solve entirely at fine resolution, the
  // two-level result must agree with the one-shot fine solve.
  Scene scene;
  geometry::LayerStackBuilder stack(1e-3, 1e-3);
  stack.add_layer({"die", "silicon", 200e-6});
  stack.emit(scene);
  Block heat;
  heat.name = "hotspot";
  heat.box = Box3::make({0.45e-3, 0.45e-3, 0}, {0.55e-3, 0.55e-3, 40e-6});
  heat.material = scene.materials().id_of("silicon");
  heat.power = 0.3;
  scene.add(std::move(heat));

  mesh::MeshOptions fine;
  fine.default_max_cell_xy = 20e-6;
  fine.default_max_cell_z = 40e-6;
  const auto reference =
      solve_steady_state(mesh::RectilinearMesh::build(scene, fine), bcs());

  mesh::MeshOptions global_mesh;
  global_mesh.default_max_cell_xy = 100e-6;
  global_mesh.default_max_cell_z = 40e-6;
  TwoLevelOptions options;
  options.local_mesh.default_max_cell_xy = 20e-6;
  options.local_mesh.default_max_cell_z = 40e-6;
  options.window_margin = 250e-6;
  const Box3 window = Box3::make({0.4e-3, 0.4e-3, 0}, {0.6e-3, 0.6e-3, 200e-6});
  const ThermalField local_field =
      solve_local_window(scene, bcs(), solve_global(scene, global_mesh), window, options);

  const geometry::Vec3 probe{0.5e-3, 0.5e-3, 10e-6};
  const double t_ref = reference.at(probe);
  const double t_two = local_field.at(probe);
  // Within a few percent of the rise over ambient.
  EXPECT_NEAR(t_two, t_ref, 0.05 * (t_ref - 30.0));
}

TEST(TwoLevel, ReusingGlobalFieldAcrossWindows) {
  const Scene scene = hotspot_scene();
  mesh::MeshOptions global_mesh;
  global_mesh.default_max_cell_xy = 500e-6;
  TwoLevelOptions options;
  options.local_mesh.default_max_cell_xy = 50e-6;

  const ThermalField global_field = solve_global(scene, global_mesh);

  const Box3 w1 = Box3::make({1.9e-3, 1.9e-3, 0}, {2.1e-3, 2.1e-3, 300e-6});
  const Box3 w2 = Box3::make({0.5e-3, 0.5e-3, 0}, {0.9e-3, 0.9e-3, 300e-6});
  const auto f1 = solve_local_window(scene, bcs(), global_field, w1, options);
  const auto f2 = solve_local_window(scene, bcs(), global_field, w2, options);
  EXPECT_GT(f1.max_in(w1), f2.max_in(w2));  // hotspot window is hotter
}

TEST(TwoLevel, WindowOutsideDomainRejected) {
  const Scene scene = hotspot_scene();
  mesh::MeshOptions global_mesh;
  global_mesh.default_max_cell_xy = 500e-6;
  const ThermalField global_field = solve_global(scene, global_mesh);
  const Box3 outside = Box3::make({10e-3, 10e-3, 0}, {11e-3, 11e-3, 1e-3});
  EXPECT_THROW(solve_local_window(scene, bcs(), global_field, outside, TwoLevelOptions{}), Error);
}

}  // namespace
}  // namespace photherm::thermal
