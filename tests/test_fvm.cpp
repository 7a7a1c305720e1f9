#include "thermal/fvm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/stack.hpp"
#include "support/fixtures.hpp"
#include "util/error.hpp"

namespace photherm::thermal {
namespace {

using fixtures::add_heater;
using fixtures::uniform_mesh_options;
using fixtures::uniform_slab;
using geometry::Box3;
using geometry::Scene;

/// Uniform silicon slab, area a x a, thickness t.
Scene slab(double a, double t) { return uniform_slab(a, t); }

TEST(Fvm, MatrixIsSymmetricSpd) {
  Scene scene = slab(1e-3, 200e-6);
  const auto options = uniform_mesh_options(200e-6, 100e-6);
  const auto mesh = mesh::RectilinearMesh::build(scene, options);
  BoundarySet bcs;
  bcs[Face::kZMax] = FaceBc::convection(1e4, 25.0);
  const auto system = assemble(mesh, bcs);
  EXPECT_TRUE(system.matrix.is_symmetric());
  // Diagonal dominance (M-matrix): diagonal >= sum of |off-diagonals|.
  const auto d = system.matrix.diagonal();
  for (double v : d) {
    EXPECT_GT(v, 0.0);
  }
}

TEST(Fvm, AllAdiabaticRejected) {
  Scene scene = slab(1e-3, 200e-6);
  const auto options = uniform_mesh_options(500e-6);
  const auto mesh = mesh::RectilinearMesh::build(scene, options);
  EXPECT_THROW(assemble(mesh, BoundarySet::adiabatic()), Error);
}

TEST(Fvm, NoPowerGivesAmbientEverywhere) {
  Scene scene = slab(1e-3, 200e-6);
  const auto options = uniform_mesh_options(250e-6);
  BoundarySet bcs;
  bcs[Face::kZMax] = FaceBc::convection(5e3, 42.0);
  const auto field =
      solve_steady_state(mesh::RectilinearMesh::build(scene, options), bcs);
  EXPECT_NEAR(field.global_min(), 42.0, 1e-8);
  EXPECT_NEAR(field.global_max(), 42.0, 1e-8);
}

TEST(Fvm, UniformFluxMatches1dAnalytic) {
  // Uniform volumetric heating of a slab, convection on top, adiabatic
  // elsewhere: surface T = T_inf + q''/h; bottom adds q'' t / (2 k) ... the
  // exact profile is parabolic; check both faces.
  const double a = 1e-3;
  const double t = 200e-6;
  const double power = 0.2;
  Scene scene = slab(a, t);
  add_heater(scene, Box3::make({0, 0, 0}, {a, a, t}), power, "silicon",
             "volumetric");

  const double h = 2e4;
  const double t_inf = 30.0;
  BoundarySet bcs;
  bcs[Face::kZMax] = FaceBc::convection(h, t_inf);

  // 1-D column in xy.
  const auto options = uniform_mesh_options(a, 2e-6);
  const auto field =
      solve_steady_state(mesh::RectilinearMesh::build(scene, options), bcs);

  const double flux = power / (a * a);
  const double k = scene.materials().get("silicon").conductivity;
  const double t_top = t_inf + flux / h;
  const double t_bottom = t_top + flux * t / (2.0 * k);
  EXPECT_NEAR(field.at({a / 2, a / 2, t - 1e-9}), t_top, 0.02 * (t_top - t_inf) + 1e-3);
  EXPECT_NEAR(field.at({a / 2, a / 2, 0.0}), t_bottom, 0.02 * (t_bottom - t_inf) + 1e-3);
}

TEST(Fvm, SeriesLayersMatchResistanceChain) {
  // Two layers (silicon under oxide), heat injected at the bottom face
  // region, convection on top: interface temperatures follow the 1-D
  // resistance chain.
  const double a = 0.5e-3;
  Scene scene;
  geometry::LayerStackBuilder stack(a, a);
  stack.add_layer({"si", "silicon", 100e-6});
  stack.add_layer({"ox", "silicon_dioxide", 20e-6});
  stack.emit(scene);
  add_heater(scene, Box3::make({0, 0, 0}, {a, a, 10e-6}), 0.1, "silicon",
             "source");

  const double h = 1e4;
  BoundarySet bcs;
  bcs[Face::kZMax] = FaceBc::convection(h, 20.0);
  const auto options = uniform_mesh_options(a, 2e-6);
  const auto field =
      solve_steady_state(mesh::RectilinearMesh::build(scene, options), bcs);

  const double flux = 0.1 / (a * a);
  const double k_ox = scene.materials().get("silicon_dioxide").conductivity;
  // Temperature drop across the oxide: q'' t / k.
  const double drop_ox = flux * 20e-6 / k_ox;
  const double measured_drop =
      field.at({a / 2, a / 2, 100e-6 - 1e-9}) - field.at({a / 2, a / 2, 120e-6 - 1e-9});
  EXPECT_NEAR(measured_drop, drop_ox, 0.05 * drop_ox);
}

TEST(Fvm, EnergyBalance) {
  const double a = 1e-3;
  Scene scene = slab(a, 300e-6);
  add_heater(scene, Box3::make({a / 4, a / 4, 0}, {a / 2, a / 2, 50e-6}), 0.75,
             "silicon", "hotspot");

  BoundarySet bcs;
  bcs[Face::kZMax] = FaceBc::convection(5e3, 25.0);
  bcs[Face::kZMin] = FaceBc::convection(100.0, 25.0);
  bcs[Face::kXMin] = FaceBc::dirichlet(25.0);

  const auto options = uniform_mesh_options(100e-6, 50e-6);
  const auto field =
      solve_steady_state(mesh::RectilinearMesh::build(scene, options), bcs);
  EXPECT_NEAR(boundary_heat_flow(field, bcs), 0.75, 1e-6);
}

TEST(Fvm, DirichletFaceIsRespected) {
  Scene scene = slab(1e-3, 200e-6);
  BoundarySet bcs;
  bcs[Face::kZMin] = FaceBc::dirichlet(77.0);
  const auto options = uniform_mesh_options(250e-6, 20e-6);
  const auto field =
      solve_steady_state(mesh::RectilinearMesh::build(scene, options), bcs);
  // No power: the whole slab relaxes to the wall temperature (up to the
  // iterative-solver tolerance).
  EXPECT_NEAR(field.global_min(), 77.0, 1e-5);
  EXPECT_NEAR(field.global_max(), 77.0, 1e-5);
}

TEST(Fvm, DirichletFieldVariesAlongFace) {
  Scene scene = slab(1e-3, 100e-6);
  BoundarySet bcs;
  bcs[Face::kZMin] = FaceBc::dirichlet_field(
      [](const geometry::Vec3& p) { return 20.0 + 1e4 * p.x; });  // 20..30 degC
  const auto options = uniform_mesh_options(100e-6, 25e-6);
  const auto field =
      solve_steady_state(mesh::RectilinearMesh::build(scene, options), bcs);
  const double left = field.at({0.05e-3, 0.5e-3, 0.0});
  const double right = field.at({0.95e-3, 0.5e-3, 0.0});
  EXPECT_GT(right, left + 5.0);
  EXPECT_GT(left, 19.0);
  EXPECT_LT(right, 31.0);
}

TEST(Fvm, HotterSourceGivesHotterField) {
  const double a = 1e-3;
  for (double power : {0.1, 0.2}) {
    Scene scene = slab(a, 200e-6);
    add_heater(scene,
               Box3::make({a / 4, a / 4, 0}, {3 * a / 4, 3 * a / 4, 50e-6}),
               power);
    BoundarySet bcs;
    bcs[Face::kZMax] = FaceBc::convection(5e3, 25.0);
    const auto options = uniform_mesh_options(125e-6);
    const auto field =
        solve_steady_state(mesh::RectilinearMesh::build(scene, options), bcs);
    // Linearity: peak rise doubles with power.
    static double first_rise = 0.0;
    if (power == 0.1) {
      first_rise = field.global_max() - 25.0;
    } else {
      EXPECT_NEAR(field.global_max() - 25.0, 2.0 * first_rise, 1e-6);
    }
  }
}


/// Conductance of a boundary half-cell (plus the film for convection), as
/// the triplet reference below adds it.
double reference_boundary_conductance(const FaceBc& bc, double area, double d, double k) {
  if (bc.kind == BcKind::kConvection) {
    return area / (d / (2.0 * k) + 1.0 / bc.h);
  }
  return area / (d / (2.0 * k));
}

double reference_wall_temperature(const FaceBc& bc, const geometry::Vec3& center) {
  switch (bc.kind) {
    case BcKind::kConvection:
      return bc.t_ambient;
    case BcKind::kDirichlet:
      return bc.t_wall;
    case BcKind::kDirichletField:
      return bc.wall_field(center);
    case BcKind::kAdiabatic:
      break;
  }
  return 0.0;
}

/// Triplet-form reference assembly: every face conductance is pushed into a
/// CsrBuilder (four entries per interior face, one diagonal entry per
/// boundary face) and merged by `build()`.
DiscreteSystem triplet_reference(const mesh::RectilinearMesh& m, const BoundarySet& bcs) {
  const std::size_t n = m.cell_count();
  const auto& lib = m.materials_library();
  auto conductivity = [&](std::size_t cell) { return lib.get(m.material(cell)).conductivity; };
  math::CsrBuilder builder(n, n);
  math::Vector rhs(n, 0.0);
  math::Vector capacitance(n, 0.0);
  const std::size_t extent[3] = {m.nx(), m.ny(), m.nz()};
  const mesh::AxisGrid* axes[3] = {&m.x(), &m.y(), &m.z()};
  for (std::size_t iz = 0; iz < m.nz(); ++iz) {
    for (std::size_t iy = 0; iy < m.ny(); ++iy) {
      for (std::size_t ix = 0; ix < m.nx(); ++ix) {
        const std::size_t cell = m.index(ix, iy, iz);
        const std::size_t at[3] = {ix, iy, iz};
        const double d[3] = {m.x().cell_width(ix), m.y().cell_width(iy), m.z().cell_width(iz)};
        const double areas[3] = {d[1] * d[2], d[0] * d[2], d[0] * d[1]};
        rhs[cell] += m.power(cell);
        const auto& mat = lib.get(m.material(cell));
        capacitance[cell] = mat.density * mat.specific_heat * d[0] * d[1] * d[2];
        for (int axis = 0; axis < 3; ++axis) {
          if (at[axis] + 1 == extent[axis]) {
            continue;
          }
          std::size_t up[3] = {ix, iy, iz};
          ++up[axis];
          const std::size_t nb = m.index(up[0], up[1], up[2]);
          const double d2 = axes[axis]->cell_width(up[axis]);
          const double g =
              areas[axis] / (d[axis] / (2.0 * conductivity(cell)) + d2 / (2.0 * conductivity(nb)));
          builder.add(cell, cell, g);
          builder.add(nb, nb, g);
          builder.add(cell, nb, -g);
          builder.add(nb, cell, -g);
        }
      }
    }
  }
  for (int f = 0; f < 6; ++f) {
    const FaceBc& bc = bcs.faces[f];
    if (bc.kind == BcKind::kAdiabatic) {
      continue;
    }
    const int axis = f / 2;
    const bool at_max = (f % 2) == 1;
    for (std::size_t iz = 0; iz < m.nz(); ++iz) {
      for (std::size_t iy = 0; iy < m.ny(); ++iy) {
        for (std::size_t ix = 0; ix < m.nx(); ++ix) {
          const std::size_t at[3] = {ix, iy, iz};
          if (at[axis] != (at_max ? extent[axis] - 1 : 0)) {
            continue;
          }
          const std::size_t cell = m.index(ix, iy, iz);
          const double d[3] = {m.x().cell_width(ix), m.y().cell_width(iy),
                               m.z().cell_width(iz)};
          const double area = axis == 0 ? d[1] * d[2] : axis == 1 ? d[0] * d[2] : d[0] * d[1];
          geometry::Vec3 center{m.x().cell_center(ix), m.y().cell_center(iy),
                                m.z().cell_center(iz)};
          const double wall = at_max ? axes[axis]->hi() : axes[axis]->lo();
          (axis == 0 ? center.x : axis == 1 ? center.y : center.z) = wall;
          const double g =
              reference_boundary_conductance(bc, area, d[axis], conductivity(cell));
          builder.add(cell, cell, g);
          rhs[cell] += g * reference_wall_temperature(bc, center);
        }
      }
    }
  }
  return DiscreteSystem{builder.build(), std::move(rhs), std::move(capacitance)};
}

TEST(Fvm, AssemblyMatchesTripletReference) {
  // Silicon slab with an off-centre copper block and an oxide block in the
  // upper corner: three materials (k spans 1.38 to 390 W/(m*K)), and the
  // blocks' edges make x, y and z non-uniform.
  const double a = 1e-3;
  const double t = 200e-6;
  Scene scene = slab(a, t);
  add_heater(scene, Box3::make({0.3e-3, 0.45e-3, 0.0}, {0.75e-3, 0.8e-3, 70e-6}), 0.5,
             "copper");
  add_heater(scene, Box3::make({0.8e-3, 0.8e-3, 130e-6}, {a, a, t}), 0.0, "silicon_dioxide",
             "oxide");
  const auto m = mesh::RectilinearMesh::build(scene, uniform_mesh_options(90e-6, 45e-6));
  ASSERT_GT(m.nx(), 3u);
  ASSERT_GT(m.nz(), 3u);

  BoundarySet bcs;
  bcs[Face::kXMin] = FaceBc::convection(500.0, 30.0);
  bcs[Face::kXMax] = FaceBc::dirichlet(45.0);
  bcs[Face::kYMin] = FaceBc::dirichlet_field(
      [](const geometry::Vec3& p) { return 25.0 + 1e4 * p.x - 3e3 * p.z; });
  bcs[Face::kYMax] = FaceBc::adiabatic();
  bcs[Face::kZMin] = FaceBc::convection(1e3, 25.0);
  bcs[Face::kZMax] = FaceBc::dirichlet_field(
      [](const geometry::Vec3& p) { return 60.0 - 2e4 * p.y; });

  const DiscreteSystem got = assemble(m, bcs);
  const DiscreteSystem want = triplet_reference(m, bcs);
  ASSERT_EQ(got.matrix.row_ptr(), want.matrix.row_ptr());
  ASSERT_EQ(got.matrix.col_idx(), want.matrix.col_idx());
  for (std::size_t r = 0; r < got.matrix.rows(); ++r) {
    for (std::size_t k = got.matrix.row_ptr()[r]; k < got.matrix.row_ptr()[r + 1]; ++k) {
      const double g = got.matrix.values()[k];
      const double w = want.matrix.values()[k];
      if (got.matrix.col_idx()[k] == r) {
        // Only the diagonal's summation order differs from the reference.
        ASSERT_NEAR(g, w, 1e-14 * std::abs(w)) << "diagonal of row " << r;
      } else {
        ASSERT_EQ(g, w) << "row " << r << " col " << got.matrix.col_idx()[k];
      }
    }
  }
  EXPECT_EQ(got.rhs, want.rhs);
  EXPECT_EQ(got.capacitance, want.capacitance);
  EXPECT_TRUE(got.matrix.is_symmetric(0.0));
}

}  // namespace
}  // namespace photherm::thermal
