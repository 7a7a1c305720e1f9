/// \file fixtures.hpp
/// \brief Shared scene/spec builders for the test suites. Keeps the
/// "uniform slab + block heater" and "coarse OnocDesignSpec" setups, and the
/// scoped concurrency override, in one place instead of re-declaring them in
/// every test file.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "core/design_space.hpp"
#include "geometry/stack.hpp"
#include "mesh/mesh.hpp"
#include "util/thread_pool.hpp"

namespace photherm::fixtures {

/// Sets the process concurrency knob (`util::set_concurrency`) for one scope
/// and restores the environment/hardware default on exit, so tests stay
/// isolated. A 1-vs-N determinism test runs the same call under guards of
/// different widths; every region below inherits the width.
class ConcurrencyGuard {
 public:
  explicit ConcurrencyGuard(std::size_t threads = 0) { util::set_concurrency(threads); }
  ~ConcurrencyGuard() { util::set_concurrency(0); }
  ConcurrencyGuard(const ConcurrencyGuard&) = delete;
  ConcurrencyGuard& operator=(const ConcurrencyGuard&) = delete;
};

/// Uniform single-material slab, footprint `a` x `a`, thickness `t`.
inline geometry::Scene uniform_slab(double a, double t,
                                    const std::string& material = "silicon") {
  geometry::Scene scene;
  geometry::LayerStackBuilder stack(a, a);
  stack.add_layer({"die", material, t});
  stack.emit(scene);
  return scene;
}

/// Add a rectangular block heat source dissipating `power` watts.
inline void add_heater(geometry::Scene& scene, const geometry::Box3& box,
                       double power, const std::string& material = "silicon",
                       const std::string& name = "heater") {
  geometry::Block heat;
  heat.name = name;
  heat.box = box;
  heat.material = scene.materials().id_of(material);
  heat.power = power;
  scene.add(std::move(heat));
}

/// Mesh options with uniform cell-size caps. Pass `cell_z <= 0` to keep the
/// default vertical resolution (one cell per layer).
inline mesh::MeshOptions uniform_mesh_options(double cell_xy,
                                              double cell_z = 0.0) {
  mesh::MeshOptions options;
  options.default_max_cell_xy = cell_xy;
  if (cell_z > 0.0) {
    options.default_max_cell_z = cell_z;
  }
  return options;
}

/// Build a shared-ownership mesh, as consumed by the transient/nonlinear
/// solvers and ThermalField.
inline std::shared_ptr<const mesh::RectilinearMesh> shared_mesh(
    const geometry::Scene& scene, const mesh::MeshOptions& options) {
  return std::make_shared<const mesh::RectilinearMesh>(
      mesh::RectilinearMesh::build(scene, options));
}

/// Coarse ONoC design spec for integration-speed tests: small ring case,
/// 3 mm global cells, 20 um ONI cells. Individual suites override fields
/// (chip power, placement, activity, ...) as needed.
inline core::OnocDesignSpec coarse_onoc_spec() {
  core::OnocDesignSpec spec;
  spec.placement = core::OniPlacementMode::kRing;
  spec.ring_case_id = 1;
  spec.chip_power = 24.0;
  spec.global_cell_xy = 3e-3;
  spec.oni_cell_xy = 20e-6;
  spec.oni_cell_z = 2e-6;
  return spec;
}

}  // namespace photherm::fixtures
