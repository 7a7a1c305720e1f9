/// \file preconditioner.hpp
/// \brief The preconditioner for conjugate gradient on a CsrMatrix: ILU(0),
/// which every solve in the library runs. The FVM conduction matrix is an
/// SPD M-matrix, so ILU(0) exists and is stable without pivoting.
///
/// The preconditioner owns all the data it applies — it keeps no pointer
/// into the caller's matrix — so rebuilding or destroying A after
/// construction can never make apply() read freed or stale storage. A
/// preconditioner built for one A stays a *valid* (merely outdated)
/// preconditioner if the caller later changes A; callers that reassemble
/// (the transient stepping path) rebuild their cached preconditioner
/// alongside the operator.
#pragma once

#include <memory>

#include "math/csr_matrix.hpp"

namespace photherm::math {

/// Applies z = M^{-1} r for some approximation M of A.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  /// Results are bit-identical at every thread count.
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
///
/// Construction is the library's one ILU(0) build: it records the
/// `precond.build` span (detail `ilu0`) and the `precond.ilu0.builds`
/// counter. The triangular sweeps are inherently sequential.
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

/// Kept only because perfbench/ calls it; goes with ROADMAP item 1.
enum class PreconditionerKind { kIlu0 };

/// Kept only because perfbench/ calls it; goes with ROADMAP item 1.
struct ChebyshevSettings {};

/// Kept only because perfbench/ calls it; goes with ROADMAP item 1.
/// Returns an Ilu0Preconditioner for `a`; the other arguments are ignored.
std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind, const CsrMatrix& a,
                                                    const ChebyshevSettings& = {});

}  // namespace photherm::math
