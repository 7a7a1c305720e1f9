/// \file two_level.hpp
/// \brief Local-window refinement of a coarse steady-state field.
///
/// The paper meshes ONI regions at 5 um inside a multi-centimetre package —
/// done naively on a tensor grid, the fine ticks propagate across the whole
/// die. Instead the full package is solved at coarse resolution
/// (solve_steady_state), then a window around each ONI is re-meshed at
/// device resolution with Dirichlet shell temperatures sampled from the
/// coarse field. Heat spreading from a ~mW device is local (hundreds of
/// um), so a window a few hundred um beyond the ONI reproduces the
/// fine-grain IcTherm solution. The design flow schedules both passes in
/// one place: core::evaluate_thermal_batch.
#pragma once

#include <memory>

#include "thermal/fvm.hpp"

namespace photherm::thermal {

struct TwoLevelOptions {
  mesh::MeshOptions local_mesh;
  /// Window margin added around the requested local box on x/y [m].
  double window_margin = 150e-6;
};

/// Re-solve the sub-box `local_box` of `scene` (grown by the margin on x/y,
/// clamped to the domain) at fine resolution on an existing coarse field of
/// the whole scene, so many windows can share one global solve. Faces of
/// the local domain that coincide with the global domain reuse the global
/// BC; interior cut faces get Dirichlet shells from the global field.
/// Throws when `local_box` lies outside the scene.
ThermalField solve_local_window(const geometry::Scene& scene, const BoundarySet& bcs,
                                const ThermalField& global_field,
                                const geometry::Box3& local_box, const TwoLevelOptions& options);

}  // namespace photherm::thermal
