/// \file preconditioner.hpp
/// \brief Preconditioners for conjugate gradient on a CsrMatrix: ILU(0),
/// which every shipped solve runs, and a fixed-degree Chebyshev polynomial,
/// the one alternative whose apply threads (degree 1 is plain diagonal
/// scaling). The FVM conduction matrix is an SPD M-matrix, so ILU(0)
/// exists and is stable without pivoting.
///
/// Every preconditioner owns all the data it applies — none keeps a
/// pointer into the caller's matrix — so rebuilding or destroying A after
/// construction can never make apply() read freed or stale storage. A
/// preconditioner built for one A stays a *valid* (merely outdated)
/// preconditioner if the caller later changes A; callers that reassemble
/// (the transient stepping path) rebuild their cached preconditioner
/// alongside the operator.
#pragma once

#include <memory>
#include <string>

#include "math/csr_matrix.hpp"

namespace photherm::math {

/// Applies z = M^{-1} r for some approximation M of A.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  /// Results are bit-identical at every thread count. The Chebyshev apply
  /// (SpMV + elementwise kernels) threads chunk-ordered at the enclosing
  /// budget; the ILU(0) triangular solves are inherently sequential.
  virtual void apply(const Vector& r, Vector& z) const = 0;
};

/// Incomplete LU with zero fill-in on the sparsity pattern of A.
///
/// The factors are stored in a sweep layout rather than as CSR. Each
/// triangular sweep row depends on the row just before it (column i - 1 in
/// L, i + 1 in U); in CSR that value makes a round trip through memory
/// (a store-to-load forward) and, in the back sweep, through the pivot
/// multiply as well, so the sweeps run at the latency of that chain rather
/// than at memory bandwidth. Here the adjacent coefficient of every row
/// lives in its own n-vector and the sweep carries the previous row's value
/// in a register: the row-to-row chain is one multiply and one subtract.
/// The other ("far") entries of each row sit in two compact lists with
/// 32-bit offsets; their values were computed rows earlier.
class Ilu0Preconditioner final : public Preconditioner {
 public:
  explicit Ilu0Preconditioner(const CsrMatrix& a);
  /// Forward and back sweep in `z` itself (resized to the system size; its
  /// previous contents are never read). Allocates nothing and divides by
  /// nothing. The forward sweep subtracts in ascending column order, as a
  /// CSR sweep does; the back sweep works on U rows pre-scaled by 1/U_ii.
  void apply(const Vector& r, Vector& z) const override;

  /// The factors rebuilt on A's pattern: strictly-lower entries hold L
  /// (unit diagonal implied), diagonal + strictly-upper hold U. An adjacent
  /// entry whose factor is exactly zero cannot be told from an absent one
  /// and is left out. A copy, for tests and diagnostics.
  CsrMatrix factors() const;

 private:
  /// One triangle's far entries, row by row: row i owns [ptr[i], ptr[i+1]).
  struct FarEntries {
    std::vector<std::uint32_t> ptr;
    std::vector<std::uint32_t> col;
    std::vector<double> val;
  };
  FarEntries lower_;   ///< L_ij for j < i - 1, ascending j
  FarEntries upper_;   ///< U_ij / U_ii for j > i + 1, descending j
  Vector lower_near_;  ///< L_{i,i-1}; 0 where row i has no such entry
  Vector upper_near_;  ///< U_{i,i+1} / U_ii; 0 where row i has no such entry
  Vector inv_pivot_;   ///< 1 / U_ii, computed after the zero-pivot checks
  std::size_t n_ = 0;
};

struct ChebyshevSettings {
  /// Chebyshev steps per apply; an apply costs `degree - 1` operator
  /// applications (plus elementwise work), so the polynomial in A has
  /// degree `degree - 1`. Must be >= 1; degree 1 is the diagonal-scaling
  /// (Jacobi) preconditioner z = D^{-1} r / theta.
  /// The default is the wall-time sweet spot on the fine FVM meshes
  /// (bench_solver_perf BM_CgChebyshevDegree): going from 4 to 8 halves
  /// the CG iteration count for the same wall time, past ~12 the extra
  /// SpMVs per apply cost more than the iterations they save.
  std::size_t degree = 8;
  /// Fallback width of the target interval
  /// [lambda_max / eig_ratio, lambda_max]: modes below the lower bound are
  /// left to CG itself, exactly like a multigrid smoother's split. When the
  /// Gershgorin lower bound (2 - lambda_max in the Jacobi-scaled operator)
  /// is tighter — true for diagonally shifted stepping operators A + C/dt —
  /// that bound wins and eig_ratio is ignored. Must be > 1.
  double eig_ratio = 30.0;
};

/// Fixed-degree Chebyshev polynomial in the Jacobi-scaled operator
/// D^{-1} A: z = p(D^{-1} A) D^{-1} r, with p chosen to approximate the
/// inverse on [lambda_max / eig_ratio, lambda_max] and lambda_max bounded
/// by the (deterministic, iteration-free) Gershgorin row sums. The apply
/// needs nothing but SpMV + elementwise kernels, so unlike the triangular
/// solves of ILU(0) it threads chunk-ordered end to end, and its setup cost
/// is one diagonal pass. With `degree = 1` it is the diagonal-scaling
/// (Jacobi) preconditioner. Symmetric by construction
/// (p(D^{-1}A) D^{-1} = D^{-1/2} p(D^{-1/2} A D^{-1/2}) D^{-1/2}), so CG
/// applies. Owns a copy of the matrix: no stale-matrix hazard.
class ChebyshevPreconditioner final : public Preconditioner {
 public:
  explicit ChebyshevPreconditioner(const CsrMatrix& a, const ChebyshevSettings& settings = {});
  void apply(const Vector& r, Vector& z) const override;

  double lambda_max() const { return lambda_max_; }
  double lambda_min() const { return lambda_min_; }

 private:
  CsrMatrix a_;
  Vector inv_diag_;
  std::size_t degree_;
  double lambda_max_ = 0.0;  ///< of D^{-1} A (Gershgorin bound)
  double lambda_min_ = 0.0;
};

enum class PreconditionerKind { kIlu0, kChebyshev };

const char* to_string(PreconditionerKind kind);
PreconditionerKind preconditioner_kind_from_string(const std::string& name);

/// Build a preconditioner of `kind` for `a`.
std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind, const CsrMatrix& a,
                                                    const ChebyshevSettings& chebyshev = {});

}  // namespace photherm::math
