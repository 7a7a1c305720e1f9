#include "thermal/fvm.hpp"

#include <cstdint>
#include <limits>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace photherm::thermal {

using geometry::Vec3;
using mesh::RectilinearMesh;

namespace {

/// Conductance of the boundary half-cell path plus (for convection) the
/// film resistance. `d` is the full cell width normal to the face.
double boundary_conductance(const FaceBc& bc, double area, double d, double k) {
  switch (bc.kind) {
    case BcKind::kAdiabatic:
      return 0.0;
    case BcKind::kConvection:
      PH_REQUIRE(bc.h > 0.0, "convection BC requires h > 0");
      return area / (d / (2.0 * k) + 1.0 / bc.h);
    case BcKind::kDirichlet:
    case BcKind::kDirichletField:
      return area / (d / (2.0 * k));
  }
  return 0.0;
}

double boundary_wall_temperature(const FaceBc& bc, const Vec3& face_center) {
  switch (bc.kind) {
    case BcKind::kAdiabatic:
      return 0.0;
    case BcKind::kConvection:
      return bc.t_ambient;
    case BcKind::kDirichlet:
      return bc.t_wall;
    case BcKind::kDirichletField:
      PH_REQUIRE(static_cast<bool>(bc.wall_field), "DirichletField BC without a field callback");
      return bc.wall_field(face_center);
  }
  return 0.0;
}

/// Geometry of one boundary cell's face: the face area, the cell width
/// normal to the face and the face centre.
struct BoundaryFace {
  double area;
  double width;
  Vec3 center;
};

BoundaryFace boundary_face(const RectilinearMesh& m, Face face, std::size_t ix, std::size_t iy,
                           std::size_t iz) {
  const auto& gx = m.x();
  const auto& gy = m.y();
  const auto& gz = m.z();
  const int f = static_cast<int>(face);
  const bool at_max = (f % 2) == 1;
  BoundaryFace b{0.0, 0.0, Vec3{gx.cell_center(ix), gy.cell_center(iy), gz.cell_center(iz)}};
  switch (f / 2) {
    case 0:
      b.area = gy.cell_width(iy) * gz.cell_width(iz);
      b.width = gx.cell_width(ix);
      b.center.x = at_max ? gx.hi() : gx.lo();
      break;
    case 1:
      b.area = gx.cell_width(ix) * gz.cell_width(iz);
      b.width = gy.cell_width(iy);
      b.center.y = at_max ? gy.hi() : gy.lo();
      break;
    default:
      b.area = gx.cell_width(ix) * gy.cell_width(iy);
      b.width = gz.cell_width(iz);
      b.center.z = at_max ? gz.hi() : gz.lo();
      break;
  }
  return b;
}

/// Visits every boundary cell of `face` and reports its index and face
/// geometry.
template <typename Fn>
void for_each_boundary_cell(const RectilinearMesh& m, Face face, Fn&& fn) {
  const int f = static_cast<int>(face);
  const int axis = f / 2;
  const bool at_max = (f % 2) == 1;
  const std::size_t nx = m.nx();
  const std::size_t ny = m.ny();
  const std::size_t nz = m.nz();
  auto visit = [&](std::size_t ix, std::size_t iy, std::size_t iz) {
    fn(m.index(ix, iy, iz), boundary_face(m, face, ix, iy, iz));
  };
  if (axis == 0) {
    const std::size_t ix = at_max ? nx - 1 : 0;
    for (std::size_t iz = 0; iz < nz; ++iz) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        visit(ix, iy, iz);
      }
    }
  } else if (axis == 1) {
    const std::size_t iy = at_max ? ny - 1 : 0;
    for (std::size_t iz = 0; iz < nz; ++iz) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        visit(ix, iy, iz);
      }
    }
  } else {
    const std::size_t iz = at_max ? nz - 1 : 0;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        visit(ix, iy, iz);
      }
    }
  }
}

/// Conductance of the face between a lower cell (width `d1`, conductivity
/// `k1`) and its upper neighbour (`d2`, `k2`). Every caller passes the lower
/// cell first, so both off-diagonals of a face are the same double.
double face_conductance(double area, double d1, double k1, double d2, double k2) {
  return area / (d1 / (2.0 * k1) + d2 / (2.0 * k2));
}

bool has_fixing_bc(const BoundarySet& bcs) {
  for (const FaceBc& bc : bcs.faces) {
    if (bc.kind != BcKind::kAdiabatic) {
      return true;
    }
  }
  return false;
}

}  // namespace

DiscreteSystem assemble(const RectilinearMesh& m, const BoundarySet& bcs) {
  telemetry::Span span("fvm.assemble");
  PH_REQUIRE(has_fixing_bc(bcs),
             "all-adiabatic boundary set: the steady-state problem is singular");

  const std::size_t n = m.cell_count();
  const std::size_t nx = m.nx();
  const std::size_t ny = m.ny();
  const std::size_t nz = m.nz();
  PH_REQUIRE(n > 0, "matrix dimensions must be positive");
  PH_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
             "mesh too large for 32-bit CSR column indices");
  const std::size_t plane = nx * ny;
  const auto& lib = m.materials_library();

  // Every cell has a diagonal plus one entry per existing neighbour, i.e.
  // two off-diagonals per interior face.
  const std::size_t faces = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1);
  std::vector<std::size_t> row_ptr(n + 1);
  std::vector<std::uint32_t> col_idx(n + 2 * faces);
  std::vector<double> values(n + 2 * faces);
  math::Vector rhs(n, 0.0);
  math::Vector capacitance(n, 0.0);

  auto conductivity = [&](std::size_t cell) { return lib.get(m.material(cell)).conductivity; };

  // Conductance of each cell's face to its lower neighbour, written by that
  // neighbour when it computed the face toward +axis: the previous cell
  // along x, the previous row along y (indexed by ix), the previous plane
  // along z (indexed by ix + nx * iy).
  double g_x_below = 0.0;
  std::vector<double> g_y_below(nx, 0.0);
  std::vector<double> g_z_below(plane, 0.0);

  std::size_t k = 0;
  for (std::size_t iz = 0; iz < nz; ++iz) {
    const double dz = m.z().cell_width(iz);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double dy = m.y().cell_width(iy);
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t cell = m.index(ix, iy, iz);
        const std::size_t in_plane = ix + nx * iy;
        const double dx = m.x().cell_width(ix);
        const double k1 = conductivity(cell);

        rhs[cell] += m.power(cell);
        const auto& mat = lib.get(m.material(cell));
        capacitance[cell] = mat.density * mat.specific_heat * dx * dy * dz;

        row_ptr[cell] = k;
        double diag = 0.0;
        auto put = [&](std::size_t col, double g) {
          col_idx[k] = static_cast<std::uint32_t>(col);
          values[k] = -g;
          ++k;
          diag += g;
        };
        if (iz > 0) {
          put(cell - plane, g_z_below[in_plane]);
        }
        if (iy > 0) {
          put(cell - nx, g_y_below[ix]);
        }
        if (ix > 0) {
          put(cell - 1, g_x_below);
        }
        const std::size_t diag_pos = k++;
        col_idx[diag_pos] = static_cast<std::uint32_t>(cell);
        if (ix + 1 < nx) {
          g_x_below = face_conductance(dy * dz, dx, k1, m.x().cell_width(ix + 1),
                                       conductivity(cell + 1));
          put(cell + 1, g_x_below);
        }
        if (iy + 1 < ny) {
          g_y_below[ix] = face_conductance(dx * dz, dy, k1, m.y().cell_width(iy + 1),
                                           conductivity(cell + nx));
          put(cell + nx, g_y_below[ix]);
        }
        if (iz + 1 < nz) {
          g_z_below[in_plane] = face_conductance(dx * dy, dz, k1, m.z().cell_width(iz + 1),
                                                 conductivity(cell + plane));
          put(cell + plane, g_z_below[in_plane]);
        }

        // Boundary faces, in face order (the order the RHS accumulates).
        const bool on_face[6] = {ix == 0, ix + 1 == nx, iy == 0, iy + 1 == ny, iz == 0,
                                 iz + 1 == nz};
        for (int f = 0; f < 6; ++f) {
          const FaceBc& bc = bcs.faces[f];
          if (!on_face[f] || bc.kind == BcKind::kAdiabatic) {
            continue;
          }
          const BoundaryFace b = boundary_face(m, static_cast<Face>(f), ix, iy, iz);
          const double g = boundary_conductance(bc, b.area, b.width, k1);
          diag += g;
          rhs[cell] += g * boundary_wall_temperature(bc, b.center);
        }
        values[diag_pos] = diag;
      }
    }
  }
  row_ptr[n] = k;
  PH_REQUIRE(k == values.size(), "assemble: row pattern does not match the nonzero count");
  // The pattern is built by construction; check it once anyway, because
  // ILU(0) and CsrMatrix::at rely on strictly increasing in-range columns.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t j = row_ptr[r]; j < row_ptr[r + 1]; ++j) {
      PH_REQUIRE(col_idx[j] < n && (j == row_ptr[r] || col_idx[j - 1] < col_idx[j]),
                 "assemble: row columns must be strictly increasing and in range");
    }
  }
  return DiscreteSystem{
      math::CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx), std::move(values)),
      std::move(rhs), std::move(capacitance)};
}

ThermalField solve_steady_state(std::shared_ptr<const RectilinearMesh> mesh,
                                const BoundarySet& bcs, const SteadyStateOptions& options) {
  PH_REQUIRE(mesh != nullptr, "solve_steady_state: null mesh");
  math::Vector t(mesh->cell_count(), 0.0);
  const DiscreteSystem system = assemble(*mesh, bcs);
  const auto result = math::conjugate_gradient(system.matrix, system.rhs, t, options.solver);
  PH_LOG_DEBUG << "steady-state solve: " << math::to_string(result);
  return ThermalField(std::move(mesh), std::move(t));
}

ThermalField solve_steady_state(RectilinearMesh mesh, const BoundarySet& bcs,
                                const SteadyStateOptions& options) {
  return solve_steady_state(std::make_shared<const RectilinearMesh>(std::move(mesh)), bcs,
                            options);
}

double boundary_heat_flow(const ThermalField& field, const BoundarySet& bcs) {
  const RectilinearMesh& m = field.mesh();
  const auto& lib = m.materials_library();
  const auto& t = field.temperatures();
  double total = 0.0;
  for (int f = 0; f < 6; ++f) {
    const FaceBc& bc = bcs.faces[f];
    if (bc.kind == BcKind::kAdiabatic) {
      continue;
    }
    for_each_boundary_cell(m, static_cast<Face>(f), [&](std::size_t cell, const BoundaryFace& b) {
      const double k = lib.get(m.material(cell)).conductivity;
      const double g = boundary_conductance(bc, b.area, b.width, k);
      total += g * (t[cell] - boundary_wall_temperature(bc, b.center));
    });
  }
  return total;
}

}  // namespace photherm::thermal
