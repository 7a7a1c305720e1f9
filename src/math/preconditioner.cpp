#include "math/preconditioner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a) : n_(a.rows()) {
  PH_REQUIRE(a.rows() == a.cols(), "ILU(0) requires a square matrix");
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  PH_REQUIRE(a.nnz() <= std::numeric_limits<std::uint32_t>::max(),
             "ILU(0): too many nonzeros for 32-bit offsets");

  // Size the layout exactly from A's pattern, and check the diagonals.
  lower_.ptr.assign(n_ + 1, 0);
  upper_.ptr.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    bool has_diag = false;
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const std::size_t j = col_idx[k];
      lower_.ptr[i + 1] += j + 1 < i;
      upper_.ptr[i + 1] += j > i + 1;
      if (j == i) {
        has_diag = true;
        if (!(values[k] > 0.0)) {
          std::ostringstream os;
          os << "ILU(0) preconditioner: non-positive diagonal entry " << values[k] << " at row "
             << i << " (the operator must be SPD; check the assembly feeding this solve)";
          throw Error(os.str());
        }
      }
    }
    PH_REQUIRE(has_diag, "ILU(0) requires a stored diagonal in every row");
    lower_.ptr[i + 1] += lower_.ptr[i];
    upper_.ptr[i + 1] += upper_.ptr[i];
  }
  lower_.col.resize(lower_.ptr[n_]);
  lower_.val.resize(lower_.ptr[n_]);
  upper_.col.resize(upper_.ptr[n_]);
  upper_.val.resize(upper_.ptr[n_]);
  lower_near_.assign(n_, 0.0);
  upper_near_.assign(n_, 0.0);
  inv_pivot_.resize(n_);  // holds the pivots U_ii until the factorisation ends

  // IKJ-variant ILU(0) factorisation restricted to the pattern of A,
  // written straight into the layout. U stays unscaled until every row is
  // done, because the later rows eliminate with U_jc itself.
  std::vector<double> work_val(n_, 0.0);
  std::vector<std::int8_t> work_set(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      work_val[col_idx[k]] = values[k];
      work_set[col_idx[k]] = 1;
    }
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const std::size_t j = col_idx[k];
      if (j >= i) {
        break;  // columns are sorted; only strictly-lower entries eliminate
      }
      const double lij = work_val[j] / inv_pivot_[j];
      work_val[j] = lij;
      if (work_set[j + 1]) {
        work_val[j + 1] -= lij * upper_near_[j];
      }
      for (std::uint32_t kk = upper_.ptr[j]; kk < upper_.ptr[j + 1]; ++kk) {
        const std::size_t c = upper_.col[kk];
        if (work_set[c]) {
          work_val[c] -= lij * upper_.val[kk];
        }
      }
    }
    std::uint32_t lower_at = lower_.ptr[i];
    std::uint32_t upper_at = upper_.ptr[i + 1];
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const std::size_t j = col_idx[k];
      const double v = work_val[j];
      if (j + 1 < i) {
        lower_.col[lower_at] = static_cast<std::uint32_t>(j);
        lower_.val[lower_at++] = v;
      } else if (j + 1 == i) {
        lower_near_[i] = v;
      } else if (j == i) {
        inv_pivot_[i] = v;
      } else if (j == i + 1) {
        upper_near_[i] = v;
      } else {
        upper_.col[--upper_at] = static_cast<std::uint32_t>(j);
        upper_.val[upper_at] = v;
      }
      work_val[j] = 0.0;
      work_set[j] = 0;
    }
    if (!(std::abs(inv_pivot_[i]) > 0.0)) {
      std::ostringstream os;
      os << "ILU(0) produced a zero pivot at row " << i;
      throw Error(os.str());
    }
  }
  for (std::size_t i = 0; i < n_; ++i) {
    inv_pivot_[i] = 1.0 / inv_pivot_[i];
    upper_near_[i] *= inv_pivot_[i];
    for (std::uint32_t k = upper_.ptr[i]; k < upper_.ptr[i + 1]; ++k) {
      upper_.val[k] *= inv_pivot_[i];
    }
  }
}

CsrMatrix Ilu0Preconditioner::factors() const {
  std::vector<std::size_t> row_ptr(n_ + 1, 0);
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  const auto push = [&](std::size_t j, double v) {
    col_idx.push_back(static_cast<std::uint32_t>(j));
    values.push_back(v);
  };
  for (std::size_t i = 0; i < n_; ++i) {
    const double pivot = 1.0 / inv_pivot_[i];
    for (std::uint32_t k = lower_.ptr[i]; k < lower_.ptr[i + 1]; ++k) {
      push(lower_.col[k], lower_.val[k]);
    }
    if (lower_near_[i] != 0.0) {
      push(i - 1, lower_near_[i]);
    }
    push(i, pivot);
    if (upper_near_[i] != 0.0) {
      push(i + 1, upper_near_[i] * pivot);
    }
    for (std::uint32_t k = upper_.ptr[i + 1]; k-- > upper_.ptr[i];) {
      push(upper_.col[k], upper_.val[k] * pivot);
    }
    row_ptr[i + 1] = values.size();
  }
  return CsrMatrix(n_, n_, std::move(row_ptr), std::move(col_idx), std::move(values));
}

void Ilu0Preconditioner::apply(const Vector& r, Vector& z) const {
  PH_REQUIRE(r.size() == n_, "ILU(0) apply: size mismatch");
  telemetry::count("precond.ilu0.applies");
  // Both sweeps run in z: each reads only entries it has already written,
  // so whatever z held before is never used. The adjacent row's value
  // never goes through memory: `carry` holds it.
  z.resize(n_);
  double* out = z.data();
  const double* in = r.data();
  // Solve L y = r (unit lower triangular), y into z.
  {
    const std::uint32_t* ptr = lower_.ptr.data();
    const std::uint32_t* col = lower_.col.data();
    const double* val = lower_.val.data();
    const double* near = lower_near_.data();
    double carry = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      double acc = in[i];
      for (std::uint32_t k = ptr[i]; k < ptr[i + 1]; ++k) {
        acc -= val[k] * out[col[k]];
      }
      carry = acc - near[i] * carry;
      out[i] = carry;
    }
  }
  // Solve U z = y in place, on the rows of D^{-1} U.
  {
    const std::uint32_t* ptr = upper_.ptr.data();
    const std::uint32_t* col = upper_.col.data();
    const double* val = upper_.val.data();
    const double* near = upper_near_.data();
    const double* inv_pivot = inv_pivot_.data();
    double carry = 0.0;
    for (std::size_t i = n_; i-- > 0;) {
      double acc = out[i] * inv_pivot[i];
      for (std::uint32_t k = ptr[i]; k < ptr[i + 1]; ++k) {
        acc -= val[k] * out[col[k]];
      }
      carry = acc - near[i] * carry;
      out[i] = carry;
    }
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
