/// Ablation of the two-level solver (DESIGN.md): on a domain small enough
/// to also solve in one shot at device resolution, compare the two-level
/// result against the fine reference — accuracy of the Dirichlet-shell
/// approximation vs the cell-count saving that makes the full SCC sweeps
/// tractable.
#include <chrono>
#include <iostream>

#include "geometry/stack.hpp"
#include "thermal/two_level.hpp"
#include "util/csv.hpp"

using namespace photherm;

namespace {

geometry::Scene make_scene(double die, double hotspot_size) {
  geometry::Scene scene;
  geometry::LayerStackBuilder stack(die, die);
  stack.add_layer({"bulk", "silicon", 200e-6});
  stack.add_layer({"ox", "silicon_dioxide", 10e-6});
  stack.emit(scene);
  geometry::Block bg;
  bg.name = "background";
  bg.box = geometry::Box3::make({0, 0, 0}, {die, die, 30e-6});
  bg.material = scene.materials().id_of("silicon");
  bg.power = 1.5;
  scene.add(std::move(bg));
  geometry::Block hot;
  hot.name = "device";
  hot.box = geometry::Box3::make({die / 2 - hotspot_size / 2, die / 2 - hotspot_size / 2, 0},
                                 {die / 2 + hotspot_size / 2, die / 2 + hotspot_size / 2,
                                  30e-6});
  hot.material = scene.materials().id_of("silicon");
  hot.power = 20e-3;
  scene.add(std::move(hot));
  return scene;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main() {
  const double die = 3e-3;
  const double hotspot = 60e-6;
  const geometry::Scene scene = make_scene(die, hotspot);
  thermal::BoundarySet bcs;
  bcs[thermal::Face::kZMax] = thermal::FaceBc::convection(5e3, 37.0);

  const geometry::Box3 probe_box = geometry::Box3::make(
      {die / 2 - hotspot, die / 2 - hotspot, 0}, {die / 2 + hotspot, die / 2 + hotspot, 210e-6});

  Table table({"method", "cells", "peak T (degC)", "probe avg (degC)", "solve time (s)"});
  table.set_precision(5);

  double reference_peak = 0.0;
  double reference_avg = 0.0;
  {
    // One-shot fine reference: 15 um everywhere.
    mesh::MeshOptions fine;
    fine.default_max_cell_xy = 15e-6;
    const auto t0 = std::chrono::steady_clock::now();
    const auto mesh = mesh::RectilinearMesh::build(scene, fine);
    const auto field = thermal::solve_steady_state(mesh, bcs);
    reference_peak = field.global_max();
    reference_avg = field.average_in(probe_box);
    table.add_row({std::string("one-shot fine (reference)"),
                   static_cast<double>(field.mesh().cell_count()), reference_peak,
                   reference_avg, seconds_since(t0)});
  }
  {
    // Two-level: coarse 300 um global + 15 um window.
    mesh::MeshOptions coarse;
    coarse.default_max_cell_xy = 300e-6;
    thermal::TwoLevelOptions options;
    options.local_mesh.default_max_cell_xy = 15e-6;
    options.window_margin = 300e-6;
    const auto t0 = std::chrono::steady_clock::now();
    const auto global_field =
        thermal::solve_steady_state(mesh::RectilinearMesh::build(scene, coarse), bcs);
    const auto local_field =
        thermal::solve_local_window(scene, bcs, global_field, probe_box, options);
    const double cells = static_cast<double>(global_field.mesh().cell_count() +
                                             local_field.mesh().cell_count());
    table.add_row({std::string("two-level (global+window)"), cells,
                   local_field.max_in(probe_box), local_field.average_in(probe_box),
                   seconds_since(t0)});
    std::cout << "peak error vs reference: "
              << std::abs(local_field.max_in(probe_box) - reference_peak) << " degC, "
              << "probe-average error: "
              << std::abs(local_field.average_in(probe_box) - reference_avg) << " degC\n";
  }
  {
    // Coarse-only, for contrast: what the global solve alone would report.
    mesh::MeshOptions coarse;
    coarse.default_max_cell_xy = 300e-6;
    const auto t0 = std::chrono::steady_clock::now();
    const auto field =
        thermal::solve_steady_state(mesh::RectilinearMesh::build(scene, coarse), bcs);
    table.add_row({std::string("coarse only"), static_cast<double>(field.mesh().cell_count()),
                   field.global_max(), field.average_in(probe_box), seconds_since(t0)});
  }

  print_table(std::cout, "Two-level solver ablation (device hotspot on a 3 mm die)", table);
  std::cout << "the two-level scheme recovers the fine peak at a fraction of the cells;\n"
               "the paper's 5 um ONI meshing inside the SCC package relies on this.\n";
  return 0;
}
