#include "math/preconditioner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace photherm::math {

namespace {

/// Inverted diagonal with the actionable guard the Krylov stack relies on:
/// a zero diagonal would divide to inf and a negative one silently breaks
/// the SPD preconditioner, and either surfaces much later as a cryptic CG
/// non-convergence. Fail at construction, naming the row.
Vector checked_inverse_diagonal(const CsrMatrix& a) {
  Vector inv_diag = a.diagonal();
  for (std::size_t i = 0; i < inv_diag.size(); ++i) {
    if (!(inv_diag[i] > 0.0)) {
      std::ostringstream os;
      os << "Chebyshev preconditioner: non-positive diagonal entry " << inv_diag[i]
         << " at row " << i
         << " (the operator must be SPD; check the assembly feeding this solve)";
      throw Error(os.str());
    }
    inv_diag[i] = 1.0 / inv_diag[i];
  }
  return inv_diag;
}

/// max_i scale[i] * sum_j |a_ij|: a Gershgorin-style upper bound on the
/// spectral radius of diag(scale) * A. With scale = 1/diag(A) this bounds
/// the Jacobi-scaled spectrum, which is how ChebyshevPreconditioner obtains
/// its eigenvalue interval without any power iteration.
double scaled_row_sum_bound(const CsrMatrix& a, const Vector& scale) {
  const auto& row_ptr = a.row_ptr();
  const auto& values = a.values();
  double bound = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      sum += std::abs(values[k]);
    }
    bound = std::max(bound, scale[r] * sum);
  }
  return bound;
}

}  // namespace

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a)
    : row_ptr_(a.row_ptr()), col_idx_(a.col_idx()), values_(a.values()), n_(a.rows()) {
  PH_REQUIRE(a.rows() == a.cols(), "ILU(0) requires a square matrix");
  diag_pos_.assign(n_, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (col_idx_[k] == i) {
        diag_pos_[i] = k;
      }
    }
    PH_REQUIRE(diag_pos_[i] != static_cast<std::size_t>(-1),
               "ILU(0) requires a stored diagonal in every row");
    if (!(values_[diag_pos_[i]] > 0.0)) {
      std::ostringstream os;
      os << "ILU(0) preconditioner: non-positive diagonal entry " << values_[diag_pos_[i]]
         << " at row " << i << " (the operator must be SPD; check the assembly feeding "
         << "this solve)";
      throw Error(os.str());
    }
  }

  // IKJ-variant ILU(0) factorisation restricted to the pattern of A.
  std::vector<double> work_val(n_, 0.0);
  std::vector<std::int8_t> work_set(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      work_val[col_idx_[k]] = values_[k];
      work_set[col_idx_[k]] = 1;
    }
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const std::size_t j = col_idx_[k];
      if (j >= i) {
        break;  // columns are sorted; only strictly-lower entries eliminate
      }
      const double pivot = values_[diag_pos_[j]];
      const double lij = work_val[j] / pivot;
      work_val[j] = lij;
      for (std::size_t kk = diag_pos_[j] + 1; kk < row_ptr_[j + 1]; ++kk) {
        const std::size_t c = col_idx_[kk];
        if (work_set[c]) {
          work_val[c] -= lij * values_[kk];
        }
      }
    }
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      values_[k] = work_val[col_idx_[k]];
      work_val[col_idx_[k]] = 0.0;
      work_set[col_idx_[k]] = 0;
    }
    if (!(std::abs(values_[diag_pos_[i]]) > 0.0)) {
      std::ostringstream os;
      os << "ILU(0) produced a zero pivot at row " << i;
      throw Error(os.str());
    }
  }
  inv_pivot_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    inv_pivot_[i] = 1.0 / values_[diag_pos_[i]];
  }
}

CsrMatrix Ilu0Preconditioner::factors() const {
  return CsrMatrix(n_, n_, row_ptr_, col_idx_, values_);
}

void Ilu0Preconditioner::apply(const Vector& r, Vector& z) const {
  PH_REQUIRE(r.size() == n_, "ILU(0) apply: size mismatch");
  telemetry::count("precond.ilu0.applies");
  // Both sweeps run in z: each reads only entries it has already written,
  // so whatever z held before is never used.
  z.resize(n_);
  const std::size_t* row_ptr = row_ptr_.data();
  const std::size_t* diag_pos = diag_pos_.data();
  const std::uint32_t* col = col_idx_.data();
  const double* lu = values_.data();
  double* out = z.data();
  // Solve L y = r (unit lower triangular), y into z.
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = r[i];
    for (std::size_t k = row_ptr[i]; k < diag_pos[i]; ++k) {
      acc -= lu[k] * out[col[k]];
    }
    out[i] = acc;
  }
  // Solve U z = y in place.
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = out[ii];
    for (std::size_t k = diag_pos[ii] + 1; k < row_ptr[ii + 1]; ++k) {
      acc -= lu[k] * out[col[k]];
    }
    out[ii] = acc * inv_pivot_[ii];
  }
}

ChebyshevPreconditioner::ChebyshevPreconditioner(const CsrMatrix& a,
                                                 const ChebyshevSettings& settings)
    : a_(a),
      inv_diag_(checked_inverse_diagonal(a)),
      degree_(settings.degree) {
  PH_REQUIRE(settings.degree >= 1, "Chebyshev degree must be at least 1");
  PH_REQUIRE(settings.eig_ratio > 1.0, "Chebyshev eig_ratio must exceed 1");
  lambda_max_ = scaled_row_sum_bound(a, inv_diag_);
  PH_REQUIRE(lambda_max_ > 0.0 && std::isfinite(lambda_max_),
             "Chebyshev preconditioner: operator has no finite positive spectrum bound");
  // Jacobi scaling pins every diagonal of D^{-1} A at 1, so the Gershgorin
  // discs give a lower spectrum bound for free: min_i (1 - sum|offdiag|/d_i)
  // = 2 - lambda_max. For the bare conduction operator this is ~0 (useless,
  // fall back to lambda_max / eig_ratio), but for the diagonally shifted
  // transient stepping operator A + C/dt it is tight — the interval then
  // hugs the actual spectrum instead of chasing modes that do not exist,
  // which is what makes the cached preconditioner cheap per warm step.
  // Keep a sliver of interval so it never collapses (a diagonal operator
  // has lambda_max == 1 and the two bounds would otherwise meet).
  lambda_min_ = std::max(lambda_max_ / settings.eig_ratio, 2.0 - lambda_max_);
  lambda_min_ = std::min(lambda_min_, 0.95 * lambda_max_);
}

void ChebyshevPreconditioner::apply(const Vector& r, Vector& z) const {
  const std::size_t n = inv_diag_.size();
  PH_REQUIRE(r.size() == n, "Chebyshev apply: size mismatch");
  telemetry::count("precond.chebyshev.applies");

  // Chebyshev iteration on (D^{-1} A) z = D^{-1} r with zero initial
  // guess (Saad, Iterative Methods, Alg. 12.1), tracking the unscaled
  // residual res = r - A z so each step costs exactly one SpMV.
  const double theta = 0.5 * (lambda_max_ + lambda_min_);
  const double delta = 0.5 * (lambda_max_ - lambda_min_);
  const double sigma = theta / delta;

  // First step: z = d = D^{-1} r / theta.
  Vector d(n);
  auto first = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      d[i] = inv_diag_[i] * r[i] / theta;
    }
  };
  if (n < util::kSerialCutoff) {
    first(0, n);
  } else {
    util::parallel_for(n, util::kKernelGrain, first);
  }
  z = d;
  if (degree_ == 1) {
    return;
  }

  Vector res = r;
  Vector ad(n);
  double rho = 1.0 / sigma;
  for (std::size_t k = 1; k < degree_; ++k) {
    // res -= A d (z just moved by d).
    a_.multiply(d, ad);
    axpy(-1.0, ad, res);
    const double rho_next = 1.0 / (2.0 * sigma - rho);
    const double c_d = rho_next * rho;
    const double c_res = 2.0 * rho_next / delta;
    auto update = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        d[i] = c_d * d[i] + c_res * inv_diag_[i] * res[i];
        z[i] += d[i];
      }
    };
    if (n < util::kSerialCutoff) {
      update(0, n);
    } else {
      util::parallel_for(n, util::kKernelGrain, update);
    }
    rho = rho_next;
  }
}

const char* to_string(PreconditionerKind kind) {
  switch (kind) {
    case PreconditionerKind::kIlu0:
      return "ilu0";
    case PreconditionerKind::kChebyshev:
      return "chebyshev";
  }
  return "unknown";
}

PreconditionerKind preconditioner_kind_from_string(const std::string& name) {
  for (PreconditionerKind kind : {PreconditionerKind::kIlu0, PreconditionerKind::kChebyshev}) {
    if (name == to_string(kind)) {
      return kind;
    }
  }
  throw Error("unknown preconditioner `" + name + "` (expected ilu0 or chebyshev)");
}

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind, const CsrMatrix& a,
                                                    const ChebyshevSettings& chebyshev) {
  telemetry::Span span("precond.build", to_string(kind));
  switch (kind) {
    case PreconditionerKind::kIlu0:
      telemetry::count("precond.ilu0.builds");
      return std::make_unique<Ilu0Preconditioner>(a);
    case PreconditionerKind::kChebyshev:
      telemetry::count("precond.chebyshev.builds");
      return std::make_unique<ChebyshevPreconditioner>(a, chebyshev);
  }
  throw Error("unknown preconditioner kind");
}

}  // namespace photherm::math
