#include "math/solvers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "support/fixtures.hpp"
#include "thermal/fvm.hpp"
#include "thermal/transient.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace photherm::math {
namespace {

/// 1-D Laplacian (SPD) of size n with Dirichlet-like ends.
CsrMatrix laplacian(std::size_t n) {
  CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 2.0);
    if (i > 0) {
      builder.add(i, i - 1, -1.0);
    }
    if (i + 1 < n) {
      builder.add(i, i + 1, -1.0);
    }
  }
  return builder.build();
}

/// Diagonal scaling z = D^{-1} r, through the caller-owned-preconditioner
/// overload: a weak preconditioner for the tests that need CG to take more
/// than one iteration. ILU(0) factors a tridiagonal matrix exactly, so CG
/// with it converges in one step.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a) : inv_diag_(a.diagonal()) {
    for (double& d : inv_diag_) {
      d = 1.0 / d;
    }
  }
  void apply(const Vector& r, Vector& z) const override {
    z.resize(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      z[i] = inv_diag_[i] * r[i];
    }
  }

 private:
  Vector inv_diag_;
};

TEST(Solvers, CgSolvesLaplacian) {
  const std::size_t n = 200;
  const CsrMatrix a = laplacian(n);
  Vector x_true(n);
  Rng rng(7);
  for (double& v : x_true) {
    v = rng.uniform(-1.0, 1.0);
  }
  const Vector b = a.multiply(x_true);

  Vector x;
  const SolverResult result = conjugate_gradient(a, b, x);
  EXPECT_TRUE(result.converged);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-6);
  }
}

TEST(Solvers, ZeroRhsGivesZeroSolution) {
  const CsrMatrix a = laplacian(10);
  Vector x;
  const SolverResult result = conjugate_gradient(a, Vector(10, 0.0), x);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  for (double v : x) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(Solvers, CgRejectsIndefiniteMatrix) {
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, -1.0);
  const CsrMatrix a = builder.build();
  Vector x;
  EXPECT_THROW(conjugate_gradient(a, {1.0, 1.0}, x), Error);
}

TEST(Solvers, FailureThrowsWhenRequested) {
  const CsrMatrix a = laplacian(50);
  Vector x;
  SolverOptions options;
  options.max_iterations = 1;
  options.rel_tolerance = 1e-14;
  // Diagonal scaling, so a single iteration genuinely falls short.
  const JacobiPreconditioner jacobi(a);
  EXPECT_THROW(conjugate_gradient(a, Vector(50, 1.0), x, jacobi, options), SolverError);
  options.throw_on_failure = false;
  x.clear();
  const SolverResult result = conjugate_gradient(a, Vector(50, 1.0), x, jacobi, options);
  EXPECT_FALSE(result.converged);
}

TEST(Solvers, WarmStartReducesIterations) {
  const std::size_t n = 300;
  const CsrMatrix a = laplacian(n);
  const Vector b(n, 1.0);
  Vector cold;
  const auto cold_result = conjugate_gradient(a, b, cold);
  Vector warm = cold;  // exact solution as initial guess
  const auto warm_result = conjugate_gradient(a, b, warm);
  EXPECT_LT(warm_result.iterations, cold_result.iterations);
}

// --- Regression tests for the convergence-reporting bugfixes. ---------------

/// Find an (iteration budget, tolerance) pair for which the solver runs its
/// full budget (no early inner-loop exit) and lands with a true residual
/// strictly between `tol` and `10 * tol`. Probes the deterministic residual
/// trajectory, then verifies each candidate by re-running with the
/// candidate tolerance. Returns (budget, tolerance); budget == 0 if no such
/// pair exists.
template <typename Solver>
std::pair<std::size_t, double> find_mid_window_budget(Solver&& solve, SolverOptions options) {
  options.throw_on_failure = false;
  for (std::size_t budget = 1; budget <= 120; ++budget) {
    options.max_iterations = budget;
    options.rel_tolerance = 1e-14;
    Vector probe_x;
    const double res = solve(probe_x, options).relative_residual;
    if (res <= 1e-10) {
      continue;  // too close to the rounding floor to split into a window
    }
    const double tol = res / 2.0;
    options.rel_tolerance = tol;
    Vector x;
    const SolverResult mid = solve(x, options);
    if (mid.iterations == budget && mid.relative_residual > tol &&
        mid.relative_residual < 10.0 * tol) {
      return {budget, tol};
    }
  }
  return {0, 0.0};
}

/// `converged` must be judged against the tolerance the caller requested,
/// not a silent 10x loosening: a residual landing strictly between `tol`
/// and `10 * tol` is NOT converged.
TEST(Solvers, ResidualBetweenTolAndTenTolIsNotConverged) {
  const std::size_t n = 100;
  const CsrMatrix a = laplacian(n);
  const Vector b(n, 1.0);

  SolverOptions options;
  const JacobiPreconditioner jacobi(a);
  const auto solve = [&](Vector& x, const SolverOptions& opts) {
    return conjugate_gradient(a, b, x, jacobi, opts);
  };
  const auto [budget, tolerance] = find_mid_window_budget(solve, options);
  ASSERT_GT(budget, 0u) << "no suitable trajectory point found";

  // Stop at that budget with a tolerance the run misses by less than 10x:
  // the result lands between tol and 10 * tol. The old code declared this
  // converged.
  options.max_iterations = budget;
  options.rel_tolerance = tolerance;
  options.throw_on_failure = false;
  Vector x;
  const SolverResult mid = solve(x, options);
  ASSERT_GT(mid.relative_residual, options.rel_tolerance);
  ASSERT_LT(mid.relative_residual, 10.0 * options.rel_tolerance);
  EXPECT_FALSE(mid.converged);

  // And with throw_on_failure it must actually throw.
  options.throw_on_failure = true;
  x.clear();
  EXPECT_THROW(solve(x, options), SolverError);

  // Callers that want the old acceptance window must now ask for it.
  options.throw_on_failure = false;
  options.convergence_slack = 10.0;
  x.clear();
  EXPECT_TRUE(solve(x, options).converged);
}

/// A stale vector of the wrong size must not leak into the initial guess:
/// the solve must match a cold (zero-guess) start bit for bit.
TEST(Solvers, WrongSizedWarmStartIsResetToZero) {
  const std::size_t n = 120;
  const CsrMatrix a = laplacian(n);
  const Vector b(n, 1.0);

  Vector cold;
  const SolverResult cold_result = conjugate_gradient(a, b, cold);

  Vector stale(n + 37, 1e30);  // wrong size, garbage values
  const SolverResult stale_result = conjugate_gradient(a, b, stale);
  EXPECT_EQ(stale_result.iterations, cold_result.iterations);
  ASSERT_EQ(stale.size(), n);
  EXPECT_EQ(stale, cold);

  Vector undersized(3, 1e30);
  const SolverResult undersized_result = conjugate_gradient(a, b, undersized);
  EXPECT_EQ(undersized_result.iterations, cold_result.iterations);
  EXPECT_EQ(undersized, cold);

}

/// A correctly sized vector IS the initial guess (documented warm-start
/// contract): starting at the exact solution must converge immediately.
TEST(Solvers, CorrectlySizedVectorIsUsedAsGuess) {
  const std::size_t n = 150;
  const CsrMatrix a = laplacian(n);
  Vector x_true(n);
  Rng rng(11);
  for (double& v : x_true) {
    v = rng.uniform(-1.0, 1.0);
  }
  const Vector b = a.multiply(x_true);
  Vector x = x_true;
  const SolverResult result = conjugate_gradient(a, b, x);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
}

// --- Preconditioner hazard regressions. -------------------------------------

/// Diagonal matrix with one bad (zero or negative) entry.
CsrMatrix diagonal_matrix(std::size_t n, std::size_t bad_row, double bad_value) {
  CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, i == bad_row ? bad_value : 2.0);
  }
  return builder.build();
}

/// The guard must fire at construction and name the offending row — a zero
/// diagonal otherwise divides to inf and surfaces much later as a cryptic
/// CG non-convergence.
TEST(Solvers, ConvergenceHistoryIsOffByDefaultAndDeterministic) {
  const std::size_t n = 200;
  const CsrMatrix a = laplacian(n);
  Vector x_true(n);
  Rng rng(7);
  for (double& v : x_true) {
    v = rng.uniform(-1.0, 1.0);
  }
  const Vector b = a.multiply(x_true);

  // Off by default: no history, no allocation.
  Vector x_plain;
  SolverOptions plain;
  const SolverResult without = conjugate_gradient(a, b, x_plain, plain);
  EXPECT_TRUE(without.convergence.empty());

  // Recording captures exactly the per-iteration stopping check: one entry
  // per iteration entered, monotone start, final entry at or under the
  // tolerance, and the solution bit-identical to the unrecorded solve.
  SolverOptions record;
  record.record_convergence = true;
  const auto record_at = [&](std::size_t threads, Vector& x) {
    fixtures::ConcurrencyGuard guard(threads);
    return conjugate_gradient(a, b, x, record);
  };
  Vector x1;
  const SolverResult serial = record_at(1, x1);
  ASSERT_TRUE(serial.converged);
  ASSERT_FALSE(serial.convergence.empty());
  EXPECT_EQ(serial.convergence.size(), serial.iterations + 1);
  EXPECT_DOUBLE_EQ(serial.convergence.front(), 1.0);  // r0 = b with x0 = 0
  EXPECT_LE(serial.convergence.back(), record.rel_tolerance);
  for (std::size_t i = 0; i < x_plain.size(); ++i) {
    ASSERT_EQ(x_plain[i], x1[i]) << i;
  }

  // The history is part of the determinism contract: 1 vs 4 threads must
  // produce bit-identical residual sequences.
  Vector x4;
  const SolverResult threaded = record_at(4, x4);
  ASSERT_EQ(serial.convergence.size(), threaded.convergence.size());
  for (std::size_t i = 0; i < serial.convergence.size(); ++i) {
    ASSERT_EQ(serial.convergence[i], threaded.convergence[i]) << "iteration " << i;
  }
}

TEST(PreconditionerGuards, Ilu0NamesNonPositiveDiagonalRow) {
  try {
    Ilu0Preconditioner precond(diagonal_matrix(8, 5, -0.25));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("row 5"), std::string::npos) << e.what();
  }
}

/// Regression for the stale-matrix hazard (a preconditioner once kept a raw
/// pointer into the caller's CsrMatrix): ILU(0) owns its factors, so the
/// apply result must stay bit-identical after A is destroyed.
TEST(PreconditionerGuards, Ilu0SurvivesMatrixRebuild) {
  const std::size_t n = 50;
  const Vector r(n, 1.0);
  auto a = std::make_unique<CsrMatrix>(laplacian(n));
  const Ilu0Preconditioner precond(*a);
  Vector z_before;
  precond.apply(r, z_before);
  a.reset();
  Vector z_after;
  precond.apply(r, z_after);
  EXPECT_EQ(z_before, z_after);
}

/// The caller-owned-preconditioner overload must run the exact same
/// iteration as the one that builds ILU(0) per solve — bit-identical
/// solution and equal iteration count — so callers can cache M across
/// solves without changing results.
TEST(Solvers, CachedPreconditionerOverloadMatchesKindBased) {
  const std::size_t n = 200;
  const CsrMatrix a = laplacian(n);
  const Vector b(n, 1.0);

  SolverOptions options;
  Vector x_kind;
  const SolverResult by_kind = conjugate_gradient(a, b, x_kind, options);

  const Ilu0Preconditioner cached(a);
  Vector x_cached;
  const SolverResult by_cached = conjugate_gradient(a, b, x_cached, cached, options);

  EXPECT_EQ(by_kind.iterations, by_cached.iterations);
  EXPECT_EQ(x_kind, x_cached);
}

// --- ILU(0) on the assembled FVM operator. ----------------------------------

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Vector v(n);
  Rng rng(seed);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  return v;
}

/// Slab with an off-centre heater block: the block's edges insert mesh
/// ticks, so the x/y axes are genuinely non-uniform; two z layers via an
/// explicit cell cap make z non-uniform as well.
mesh::RectilinearMesh heated_mesh(double cell_xy, double cell_z) {
  const double a = 1e-3;
  const double t = 200e-6;
  geometry::Scene scene = fixtures::uniform_slab(a, t);
  const auto heater = geometry::Box3::make({0.3e-3, 0.45e-3, 0.0}, {0.75e-3, 0.8e-3, t});
  fixtures::add_heater(scene, heater, 0.5);
  return mesh::RectilinearMesh::build(scene, fixtures::uniform_mesh_options(cell_xy, cell_z));
}

/// Every face non-adiabatic, mixing all three fixing BC kinds.
thermal::BoundarySet all_faces_bcs() {
  using thermal::Face;
  using thermal::FaceBc;
  thermal::BoundarySet bcs;
  bcs[Face::kXMin] = FaceBc::convection(500.0, 30.0);
  bcs[Face::kXMax] = FaceBc::dirichlet(45.0);
  bcs[Face::kYMin] = FaceBc::dirichlet_field(
      [](const geometry::Vec3& p) { return 25.0 + 1e4 * p.x; });
  bcs[Face::kYMax] = FaceBc::convection(2e3, 22.0);
  bcs[Face::kZMin] = FaceBc::convection(1e3, 25.0);
  bcs[Face::kZMax] = FaceBc::dirichlet(60.0);
  return bcs;
}

TEST(Ilu0, ApplyIgnoresStaleOutputBuffer) {
  const auto mesh = heated_mesh(80e-6, 90e-6);
  const Ilu0Preconditioner precond(thermal::assemble(mesh, all_faces_bcs()).matrix);
  const std::size_t n = mesh.cell_count();
  const Vector r = random_vector(n, 31);
  Vector fresh;
  precond.apply(r, fresh);
  ASSERT_EQ(fresh.size(), n);
  for (const std::size_t size : {n + 7, n - 5, n}) {
    Vector stale(size, std::nan(""));
    for (std::size_t i = 0; i < size; i += 3) {
      stale[i] = 1e300;
    }
    precond.apply(r, stale);
    ASSERT_EQ(stale.size(), n);
    EXPECT_EQ(std::memcmp(stale.data(), fresh.data(), n * sizeof(double)), 0)
        << "stale buffer of size " << size;
  }
}

TEST(Ilu0, ApplyInvertsItsFactors) {
  const auto mesh = heated_mesh(80e-6, 90e-6);
  const CsrMatrix a = thermal::assemble(mesh, all_faces_bcs()).matrix;
  const Ilu0Preconditioner precond(a);
  const CsrMatrix lu = precond.factors();
  ASSERT_EQ(lu.row_ptr(), a.row_ptr());
  ASSERT_EQ(lu.col_idx(), a.col_idx());

  const std::size_t n = a.rows();
  const Vector r = random_vector(n, 37);
  Vector z;
  precond.apply(r, z);
  // Rebuild L U z from the stored factors: u = U z, then L u (unit diagonal).
  Vector u(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = lu.row_ptr()[i]; k < lu.row_ptr()[i + 1]; ++k) {
      if (lu.col_idx()[k] >= i) {
        u[i] += lu.values()[k] * z[lu.col_idx()[k]];
      }
    }
  }
  double max_err = 0.0;
  double max_r = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double lu_z = u[i];
    for (std::size_t k = lu.row_ptr()[i]; k < lu.row_ptr()[i + 1]; ++k) {
      if (lu.col_idx()[k] < i) {
        lu_z += lu.values()[k] * u[lu.col_idx()[k]];
      }
    }
    max_err = std::max(max_err, std::abs(lu_z - r[i]));
    max_r = std::max(max_r, std::abs(r[i]));
  }
  EXPECT_LE(max_err, 1e-12 * max_r);
}

/// The CSR ILU(0) the sweep layout replaced, kept as the reference: the
/// IKJ factorisation in place on A's values, then a forward sweep and a
/// back sweep that multiplies by the inverse pivot, both in CSR order.
class ReferenceIlu0 {
 public:
  explicit ReferenceIlu0(const CsrMatrix& a)
      : row_ptr_(a.row_ptr()), col_(a.col_idx()), lu_(a.values()), n_(a.rows()) {
    diag_.assign(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        if (col_[k] == i) {
          diag_[i] = k;
        }
      }
    }
    Vector work(n_, 0.0);
    std::vector<char> set(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        work[col_[k]] = lu_[k];
        set[col_[k]] = 1;
      }
      for (std::size_t k = row_ptr_[i]; k < diag_[i]; ++k) {
        const std::size_t j = col_[k];
        const double lij = work[j] / lu_[diag_[j]];
        work[j] = lij;
        for (std::size_t kk = diag_[j] + 1; kk < row_ptr_[j + 1]; ++kk) {
          if (set[col_[kk]]) {
            work[col_[kk]] -= lij * lu_[kk];
          }
        }
      }
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        lu_[k] = work[col_[k]];
        work[col_[k]] = 0.0;
        set[col_[k]] = 0;
      }
    }
  }

  Vector apply(const Vector& r) const {
    Vector z(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      double acc = r[i];
      for (std::size_t k = row_ptr_[i]; k < diag_[i]; ++k) {
        acc -= lu_[k] * z[col_[k]];
      }
      z[i] = acc;
    }
    for (std::size_t i = n_; i-- > 0;) {
      double acc = z[i];
      for (std::size_t k = diag_[i] + 1; k < row_ptr_[i + 1]; ++k) {
        acc -= lu_[k] * z[col_[k]];
      }
      z[i] = acc * (1.0 / lu_[diag_[i]]);
    }
    return z;
  }

 private:
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_;
  Vector lu_;
  std::vector<std::size_t> diag_;
  std::size_t n_;
};

/// max_i |z_i - reference_i| / max_i |reference_i| for one random residual.
double relative_gap_to_reference(const CsrMatrix& a, std::uint64_t seed) {
  const Vector r = random_vector(a.rows(), seed);
  const Vector expected = ReferenceIlu0(a).apply(r);
  Vector z;
  Ilu0Preconditioner(a).apply(r, z);
  double gap = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    gap = std::max(gap, std::abs(z[i] - expected[i]));
    scale = std::max(scale, std::abs(expected[i]));
  }
  return gap / scale;
}

/// Random symmetric, strictly diagonally dominant M-matrix whose pattern
/// is no stencil: each row couples to a few random rows, and every third
/// row to the next one, so the adjacent (i +- 1) entries are present in
/// some rows and absent in others.
CsrMatrix random_m_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::pair<std::size_t, double>>> rows(n);
  Vector diag(n, 0.1);
  const auto couple = [&](std::size_t i, std::size_t j) {
    const double w = rng.uniform(0.1, 1.0);
    rows[i].push_back({j, -w});
    rows[j].push_back({i, -w});
    diag[i] += w;
    diag[j] += w;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 == 0 && i + 1 < n) {
      couple(i, i + 1);
    }
    for (int e = 0; e < 3; ++e) {
      const auto j = static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(n)));
      if (j < n && j != i) {
        couple(i, j);
      }
    }
  }
  CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, diag[i]);
    for (const auto& [j, w] : rows[i]) {
      builder.add(i, j, w);
    }
  }
  return builder.build();
}

TEST(Ilu0, SweepLayoutMatchesTheCsrReference) {
  // Heated slab with every boundary kind: the 7-point stencil.
  EXPECT_LE(relative_gap_to_reference(
                thermal::assemble(heated_mesh(80e-6, 90e-6), all_faces_bcs()).matrix, 41),
            1e-13);
  // nx = 1 and 2: rows at the x ends have no i - 1 or i + 1 neighbour, and
  // at nx = 2 the missing adjacent position is one the elimination would
  // fill, so a zero adjacent coefficient must stand for "no entry".
  for (const double width : {50e-6, 100e-6}) {
    const geometry::Scene scene = fixtures::uniform_slab(1e-3, 200e-6);
    const auto domain = geometry::Box3::make({0.0, 0.0, 0.0}, {width, 1e-3, 200e-6});
    const auto mesh = mesh::RectilinearMesh::build(
        scene, domain, fixtures::uniform_mesh_options(50e-6, 50e-6));
    ASSERT_LE(mesh.nx(), 2u);
    EXPECT_LE(relative_gap_to_reference(thermal::assemble(mesh, all_faces_bcs()).matrix, 43),
              1e-13)
        << "nx = " << mesh.nx();
  }
  EXPECT_LE(relative_gap_to_reference(laplacian(300), 47), 1e-13);
  EXPECT_LE(relative_gap_to_reference(random_m_matrix(400, 53), 59), 1e-13);
}

TEST(Ilu0, ForwardSweepIsBitIdenticalToTheCsrReference) {
  // A lower-triangular A leaves U diagonal, so the apply is the forward
  // sweep plus one multiply by the inverse pivot: it must match the CSR
  // sweep bit for bit, far entries first and the adjacent one last.
  const std::size_t n = 500;
  Rng rng(61);
  CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, rng.uniform(1.0, 2.0));
    for (const std::size_t back : {1, 3, 17}) {
      if (i >= back) {
        builder.add(i, i - back, rng.uniform(-0.3, 0.3));
      }
    }
  }
  const CsrMatrix a = builder.build();
  const Vector r = random_vector(n, 67);
  Vector z;
  Ilu0Preconditioner(a).apply(r, z);
  EXPECT_EQ(z, ReferenceIlu0(a).apply(r));
}

/// `name`'s total in the exported metrics CSV.
std::uint64_t counter_total(const std::string& csv, const std::string& name) {
  const std::string row = "\n" + name + ",counter,";
  const std::size_t at = csv.find(row);
  EXPECT_NE(at, std::string::npos) << csv;
  const std::size_t total = csv.find(',', at + row.size()) + 1;
  return std::stoull(csv.substr(total, csv.find(',', total) - total));
}

/// 26^3 = 17,576 cells, above kSerialCutoff: the threaded kernels run.
thermal::DiscreteSystem threaded_slab() {
  const double a = 1e-3;
  const geometry::Scene scene = fixtures::uniform_slab(a, a);
  const auto mesh =
      mesh::RectilinearMesh::build(scene, fixtures::uniform_mesh_options(a / 26.0, a / 26.0));
  EXPECT_GE(mesh.cell_count(), util::kSerialCutoff);
  thermal::BoundarySet bcs;
  bcs[thermal::Face::kZMax] = thermal::FaceBc::convection(1e4, 25.0);
  bcs[thermal::Face::kXMin] = thermal::FaceBc::dirichlet(40.0);
  return thermal::assemble(mesh, bcs);
}

TEST(Solvers, FusedPassesCountEveryOperatorApplication) {
  const thermal::DiscreteSystem system = threaded_slab();
  telemetry::reset();
  telemetry::set_enabled(true);
  Vector x;
  const SolverResult result = conjugate_gradient(system.matrix, system.rhs, x);
  telemetry::set_enabled(false);
  const std::string csv = telemetry::metrics_table().to_csv();
  telemetry::reset();
  ASSERT_TRUE(result.converged);
  ASSERT_GT(result.iterations, 0u);
  // The initial residual, one per iteration (fused with p.Ap), and the
  // final true residual; one preconditioner apply before the loop and one
  // per iteration.
  EXPECT_EQ(counter_total(csv, "spmv.csr"), result.iterations + 2);
  EXPECT_EQ(counter_total(csv, "precond.ilu0.applies"), result.iterations + 1);
}

TEST(Solvers, Ilu0CgIsBitIdenticalAcrossThreadCountsAboveTheCutoff) {
  const thermal::DiscreteSystem system = threaded_slab();
  const Ilu0Preconditioner precond(system.matrix);
  SolverOptions options;
  options.record_convergence = true;
  const auto solve_at = [&](std::size_t threads, Vector& x) {
    fixtures::ConcurrencyGuard guard(threads);
    return conjugate_gradient(system.matrix, system.rhs, x, precond, options);
  };
  Vector x1;
  const SolverResult serial = solve_at(1, x1);
  ASSERT_TRUE(serial.converged);
  for (const std::size_t threads : {2, 4}) {
    Vector x;
    const SolverResult threaded = solve_at(threads, x);
    EXPECT_EQ(threaded.iterations, serial.iterations) << threads << " threads";
    EXPECT_EQ(threaded.convergence, serial.convergence) << threads << " threads";
    EXPECT_EQ(std::memcmp(x.data(), x1.data(), x1.size() * sizeof(double)), 0)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace photherm::math
