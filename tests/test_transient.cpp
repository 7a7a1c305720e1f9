#include "thermal/transient.hpp"

#include <gtest/gtest.h>

#include "geometry/stack.hpp"
#include "support/fixtures.hpp"
#include "util/error.hpp"

namespace photherm::thermal {
namespace {

using geometry::Box3;
using geometry::Scene;

struct Rig {
  std::shared_ptr<const mesh::RectilinearMesh> mesh;
  BoundarySet bcs;
};

/// The solver's current injected power times `scale`.
math::Vector scaled_power(const TransientSolver& solver, double scale) {
  math::Vector power = solver.power();
  for (double& p : power) {
    p *= scale;
  }
  return power;
}

Rig make_rig(double power) {
  Scene scene = fixtures::uniform_slab(1e-3, 200e-6);
  if (power > 0.0) {
    fixtures::add_heater(
        scene, Box3::make({0.25e-3, 0.25e-3, 0}, {0.75e-3, 0.75e-3, 50e-6}),
        power, "silicon", "source");
  }
  Rig rig;
  rig.mesh =
      fixtures::shared_mesh(scene, fixtures::uniform_mesh_options(125e-6, 50e-6));
  rig.bcs[Face::kZMax] = FaceBc::convection(5e3, 25.0);
  return rig;
}

TEST(Transient, EquilibriumStaysPut) {
  Rig rig = make_rig(0.0);
  TransientOptions options;
  options.time_step = 1e-3;
  TransientSolver solver(rig.mesh, rig.bcs, options);
  solver.set_uniform_state(25.0);
  const auto field = solver.advance(5);
  EXPECT_NEAR(field.global_min(), 25.0, 1e-9);
  EXPECT_NEAR(field.global_max(), 25.0, 1e-9);
}

TEST(Transient, ConvergesToSteadyState) {
  Rig rig = make_rig(0.5);
  const auto steady = solve_steady_state(rig.mesh, rig.bcs);

  TransientOptions options;
  options.time_step = 5e-3;  // a few thermal time constants per step
  TransientSolver solver(rig.mesh, rig.bcs, options);
  solver.set_uniform_state(25.0);
  const auto field = solver.advance(400);
  EXPECT_NEAR(field.global_max(), steady.global_max(), 0.01);
  EXPECT_NEAR(field.global_min(), steady.global_min(), 0.01);
}

TEST(Transient, MonotoneHeatingFromCold) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 1e-3;
  TransientSolver solver(rig.mesh, rig.bcs, options);
  solver.set_uniform_state(25.0);
  double previous = 25.0;
  for (int step = 0; step < 10; ++step) {
    const double peak = solver.step().global_max();
    EXPECT_GE(peak, previous - 1e-9);
    previous = peak;
  }
  EXPECT_GT(previous, 25.0 + 1e-3);
  EXPECT_NEAR(solver.time(), 10e-3, 1e-12);
}

TEST(Transient, CoolingAfterPowerOff) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 2e-3;
  TransientSolver solver(rig.mesh, rig.bcs, options);
  solver.set_state(solve_steady_state(rig.mesh, rig.bcs));
  solver.set_power(scaled_power(solver, 0.0));
  const double hot = solver.state().global_max();
  const double after = solver.advance(50).global_max();
  EXPECT_LT(after, hot);
  EXPECT_GE(after, 25.0 - 1e-9);
}

TEST(Transient, PowerScaleHalvesEquilibriumRise) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 10e-3;
  TransientSolver full(rig.mesh, rig.bcs, options);
  full.set_uniform_state(25.0);
  TransientSolver half(rig.mesh, rig.bcs, options);
  half.set_uniform_state(25.0);
  half.set_power(scaled_power(half, 0.5));
  const double rise_full = full.advance(300).global_max() - 25.0;
  const double rise_half = half.advance(300).global_max() - 25.0;
  EXPECT_NEAR(rise_half, rise_full / 2.0, 0.02 * rise_full);
}

TEST(Transient, StateIsAReferenceNotACopy) {
  Rig rig = make_rig(0.5);
  TransientSolver solver(rig.mesh, rig.bcs, {});
  solver.set_uniform_state(25.0);
  // state() hands out the internally maintained field; repeated calls must
  // not allocate fresh copies (the old accessor returned by value).
  const ThermalField& a = solver.state();
  const ThermalField& b = solver.state();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.global_max(), 25.0);
  solver.step();
  EXPECT_EQ(&solver.state(), &a);  // same object, updated in place
  EXPECT_GT(a.global_max(), 25.0);
}

TEST(Transient, StatsTrackStepsAndIterations) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 1e-3;
  TransientSolver solver(rig.mesh, rig.bcs, options);
  solver.set_uniform_state(25.0);
  EXPECT_EQ(solver.stats().steps, 0u);
  EXPECT_EQ(solver.last_solve().iterations, 0u);
  solver.advance(3);
  const TransientStats& stats = solver.stats();
  EXPECT_EQ(stats.steps, 3u);
  EXPECT_GT(stats.total_cg_iterations, 0u);
  EXPECT_GE(stats.total_cg_iterations, stats.max_cg_iterations);
  EXPECT_TRUE(solver.last_solve().converged);
  EXPECT_LE(solver.last_solve().iterations, stats.max_cg_iterations);
}

TEST(Transient, WarmStartCutsIterationsAndAgreesWithColdStart) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 2e-3;
  TransientSolver solver(rig.mesh, rig.bcs, options);
  solver.set_uniform_state(25.0);

  // Each step seeds CG with the previous state. Re-solve the same stepping
  // system from a zero guess: the warm solve must never cost more, must
  // cost less over the run, and must agree to solver tolerance.
  const DiscreteSystem& system = solver.system();
  const math::CsrMatrix stepping = stepping_matrix(system, options.time_step);
  std::size_t warm_total = 0;
  std::size_t cold_total = 0;
  for (int step = 0; step < 20; ++step) {
    const math::Vector previous = solver.state().temperatures();
    // The stepper's rhs, split and summed in its order so it is bit-identical.
    math::Vector rhs(previous.size());
    for (std::size_t i = 0; i < rhs.size(); ++i) {
      const double bc = system.rhs[i] - solver.power()[i];
      rhs[i] = system.capacitance[i] / options.time_step * previous[i] + bc + solver.power()[i];
    }
    const ThermalField& warm = solver.step();
    math::Vector cold;
    const math::SolverResult cold_solve =
        math::conjugate_gradient(stepping, rhs, cold, options.solver);
    ASSERT_TRUE(cold_solve.converged) << "step " << step;
    EXPECT_LE(solver.last_solve().iterations, cold_solve.iterations) << "step " << step;
    warm_total += solver.last_solve().iterations;
    cold_total += cold_solve.iterations;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      ASSERT_NEAR(warm.temperatures()[i], cold[i], 1e-6) << "step " << step << ", cell " << i;
    }
  }
  EXPECT_LT(warm_total, cold_total);
}

TEST(Transient, SetPowerMatchesARigBuiltAtThatPower) {
  TransientOptions options;
  options.time_step = 2e-3;

  Rig full = make_rig(0.5);
  TransientSolver replaced(full.mesh, full.bcs, options);
  replaced.set_uniform_state(25.0);
  replaced.set_power(scaled_power(replaced, 0.5));

  Rig half = make_rig(0.25);
  TransientSolver built(half.mesh, half.bcs, options);
  built.set_uniform_state(25.0);

  // Halving is exact in binary and the heater and the convective wall sit in
  // different cells, so both solvers step the same rhs bit for bit.
  for (int step = 0; step < 5; ++step) {
    const ThermalField& a = replaced.step();
    const ThermalField& b = built.step();
    ASSERT_EQ(a.temperatures(), b.temperatures()) << "step " << step;
  }
}

TEST(Transient, SetPowerValidatesTheSize) {
  Rig rig = make_rig(0.5);
  TransientSolver solver(rig.mesh, rig.bcs, {});
  EXPECT_THROW(solver.set_power(math::Vector(3, 0.0)), Error);
}

TEST(Transient, Validation) {
  Rig rig = make_rig(0.1);
  TransientOptions options;
  options.time_step = 0.0;
  EXPECT_THROW(TransientSolver(rig.mesh, rig.bcs, options), Error);
  options.time_step = 1e-3;
  TransientSolver solver(rig.mesh, rig.bcs, options);
  EXPECT_THROW(solver.advance(0), Error);
  EXPECT_THROW(solver.set_time_step(0.0), Error);
  EXPECT_THROW(solver.set_time(-1.0), Error);
}

TEST(Transient, SetTimeStepMatchesAFreshSolverOnTheNewGrid) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 2e-3;

  // Step a while on the fine grid, then grow the step 4x mid-flight.
  TransientSolver grown(rig.mesh, rig.bcs, options);
  grown.set_uniform_state(25.0);
  grown.advance(5);
  grown.set_time_step(8e-3);
  EXPECT_EQ(grown.time_step(), 8e-3);
  EXPECT_EQ(grown.stats().reassemblies, 1u);

  // A solver built directly on the coarse grid and seeded with the same
  // state must continue bit-identically: the rebuild via stepping_matrix
  // is exactly the construction-time assembly.
  TransientOptions coarse = options;
  coarse.time_step = 8e-3;
  TransientSolver fresh(rig.mesh, rig.bcs, coarse);
  fresh.set_state(grown.state());
  fresh.set_time(grown.time());
  EXPECT_EQ(fresh.stats().reassemblies, 0u);

  for (int step = 0; step < 5; ++step) {
    const ThermalField& a = grown.step();
    const ThermalField& b = fresh.step();
    ASSERT_EQ(a.temperatures(), b.temperatures()) << "step " << step;
    ASSERT_EQ(grown.time(), fresh.time()) << "step " << step;
  }

  // Same-valued set_time_step is a no-op, not a rebuild.
  grown.set_time_step(8e-3);
  EXPECT_EQ(grown.stats().reassemblies, 1u);
}

TEST(Transient, PreconditionerIsCachedAcrossStepsAndRebuiltOnNewDt) {
  Rig rig = make_rig(0.5);
  for (const math::PreconditionerKind kind :
       {math::PreconditionerKind::kIlu0, math::PreconditionerKind::kChebyshev}) {
    TransientOptions options;
    options.time_step = 2e-3;
    options.solver.preconditioner = kind;
    TransientSolver solver(rig.mesh, rig.bcs, options);
    solver.set_uniform_state(25.0);

    // Stepping reuses the construction-time preconditioner: no rebuilds.
    solver.advance(10);
    EXPECT_EQ(solver.stats().preconditioner_builds, 0u) << math::to_string(kind);

    // Changing dt changes the stepping operator, so both counters move
    // together; a same-valued set is a no-op for both.
    solver.set_time_step(4e-3);
    EXPECT_EQ(solver.stats().preconditioner_builds, 1u) << math::to_string(kind);
    EXPECT_EQ(solver.stats().reassemblies, 1u) << math::to_string(kind);
    solver.set_time_step(4e-3);
    EXPECT_EQ(solver.stats().preconditioner_builds, 1u) << math::to_string(kind);

    solver.advance(5);
    EXPECT_EQ(solver.stats().preconditioner_builds, 1u) << math::to_string(kind);
  }
}


TEST(Transient, SteppingMatrixAddsCapacitanceToTheStoredDiagonal) {
  const Rig rig = make_rig(0.3);
  const DiscreteSystem system = assemble(*rig.mesh, rig.bcs);
  const double dt = 3e-4;
  const math::CsrMatrix s = stepping_matrix(system, dt);
  const math::CsrMatrix& a = system.matrix;
  ASSERT_EQ(s.row_ptr(), a.row_ptr());
  ASSERT_EQ(s.col_idx(), a.col_idx());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const double expected = a.col_idx()[k] == r
                                  ? a.values()[k] + system.capacitance[r] / dt
                                  : a.values()[k];
      ASSERT_EQ(s.values()[k], expected) << "row " << r << " col " << a.col_idx()[k];
    }
  }
}

}  // namespace
}  // namespace photherm::thermal
