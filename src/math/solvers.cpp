#include "math/solvers.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace photherm::math {

namespace {

SolverResult finalize(const CsrMatrix& a, const Vector& b, const Vector& x,
                      std::size_t iters, double norm_b, const SolverOptions& options) {
  PH_REQUIRE(options.convergence_slack >= 1.0, "convergence_slack must be >= 1");
  Vector r;
  a.multiply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = b[i] - r[i];
  }
  SolverResult result;
  result.iterations = iters;
  result.residual_norm = norm2(r);
  result.relative_residual = norm_b > 0.0 ? result.residual_norm / norm_b : result.residual_norm;
  if (telemetry::enabled()) {
    telemetry::count("solver.conjugate_gradient.solves");
    telemetry::count("solver.conjugate_gradient.iterations", iters);
    telemetry::gauge("solver.conjugate_gradient.relative_residual", result.relative_residual);
  }
  // Judged on the true residual against the tolerance the caller actually
  // requested; any loosening must be asked for via convergence_slack.
  result.converged =
      result.relative_residual <= options.rel_tolerance * options.convergence_slack;
  if (!result.converged && options.throw_on_failure) {
    std::ostringstream os;
    os << "conjugate_gradient failed to converge after " << iters
       << " iterations (relative residual = " << result.relative_residual << ")";
    throw SolverError(os.str());
  }
  return result;
}

/// Warm-start contract (see solvers.hpp): keep `x` as the initial guess
/// only when it is already exactly the system size; otherwise start from
/// zero instead of inheriting stale or truncated entries.
void prepare_initial_guess(Vector& x, std::size_t n) {
  if (x.size() != n) {
    x.assign(n, 0.0);
  }
}

/// x += alpha p and r -= alpha ap on [begin, end), returning that range's
/// new r·r. Kept out of line: inlined into conjugate_gradient, the sum
/// shares a stack slot with `rr`, which lives across calls, and every
/// element then waits on a store and a reload of it.
[[gnu::noinline]] double update_range(double alpha, const double* p, const double* ap,
                                      double* x, double* r, std::size_t begin,
                                      std::size_t end) {
  double acc = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    x[i] += alpha * p[i];
    r[i] += -alpha * ap[i];
    acc += r[i] * r[i];
  }
  return acc;
}

/// The CG step's second pass: x += alpha p and r -= alpha ap, returning the
/// new r·r. Chunking and summation order are `dot()`'s, so the result is
/// bit-identical to two axpy calls and dot(r, r) at every thread count.
double update_iterate(double alpha, const Vector& p, const Vector& ap, Vector& x, Vector& r) {
  const std::size_t n = r.size();
  if (n < util::kSerialCutoff) {
    return update_range(alpha, p.data(), ap.data(), x.data(), r.data(), 0, n);
  }
  return util::parallel_reduce(
      n, util::kKernelGrain, 0.0,
      [&](std::size_t begin, std::size_t end) {
        return update_range(alpha, p.data(), ap.data(), x.data(), r.data(), begin, end);
      },
      [](double acc, double part) { return acc + part; });
}

}  // namespace

SolverResult conjugate_gradient(const CsrMatrix& a, const Vector& b, Vector& x,
                                const Preconditioner& precond, const SolverOptions& options) {
  PH_REQUIRE(a.rows() == a.cols(), "CG requires a square matrix");
  PH_REQUIRE(b.size() == a.rows(), "CG: rhs size mismatch");
  telemetry::Span span("solver.conjugate_gradient");
  const std::size_t n = a.rows();
  prepare_initial_guess(x, n);

  const double norm_b = norm2(b);
  if (norm_b == 0.0) {
    x.assign(n, 0.0);
    return {true, 0, 0.0, 0.0, {}};
  }

  Vector r;
  a.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - r[i];
  }
  Vector z(n);
  precond.apply(r, z);
  Vector p = z;
  Vector ap(n);
  double rz = dot(r, z);
  double rr = dot(r, r);

  std::vector<double> history;
  std::size_t it = 0;
  for (; it < options.max_iterations; ++it) {
    // The iteration's own stopping check; record_convergence captures
    // exactly this value, so the history costs no extra norm.
    const double rel = std::sqrt(rr) / norm_b;
    if (options.record_convergence) {
      history.push_back(rel);
      telemetry::counter("solver.conjugate_gradient.residual", rel, it);
    }
    if (rel <= options.rel_tolerance) {
      break;
    }
    // The SpMV returns p·Ap and the x/r updates return the next r·r: each
    // reduction rides on a pass that streams its vectors anyway.
    const double p_ap = a.multiply_dot(p, ap);
    PH_REQUIRE(p_ap > 0.0, "CG breakdown: matrix is not positive definite");
    const double alpha = rz / p_ap;
    rr = update_iterate(alpha, p, ap, x, r);
    precond.apply(r, z);
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    xpby(z, beta, p);
  }
  SolverResult result = finalize(a, b, x, it, norm_b, options);
  result.convergence = std::move(history);
  return result;
}

SolverResult conjugate_gradient(const CsrMatrix& a, const Vector& b, Vector& x,
                                const SolverOptions& options) {
  const auto precond = make_preconditioner(options.preconditioner, a, options.chebyshev);
  return conjugate_gradient(a, b, x, *precond, options);
}

std::string to_string(const SolverResult& result) {
  std::ostringstream os;
  os << (result.converged ? "converged" : "NOT converged") << " in " << result.iterations
     << " iterations, relative residual " << result.relative_residual;
  return os.str();
}

}  // namespace photherm::math
