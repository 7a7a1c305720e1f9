#include "math/preconditioner.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace photherm::math {

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a) : n_(a.rows()) {
  telemetry::Span span("precond.build", "ilu0");
  telemetry::count("precond.ilu0.builds");
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

// Kept only because perfbench/ calls it; goes with ROADMAP item 1.
std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind, const CsrMatrix& a,
                                                    const ChebyshevSettings&) {
  return std::make_unique<Ilu0Preconditioner>(a);
}

}  // namespace photherm::math
