// photherm_lint fixture: the ownership rule must stay SILENT on this file.
//
// The owning spellings of the patterns in bad_ownership.cpp: value members,
// smart pointers, and borrowing only for the duration of a call (parameters
// and locals are fine — the hazard is a *member* that outlives the call).
// Fixtures are scanned, not compiled.

#include <memory>

#include "math/csr_matrix.hpp"
#include "math/preconditioner.hpp"

namespace photherm::math {

class OwningSsorPreconditioner {
 public:
  // Borrowing a reference parameter for the duration of the constructor is
  // fine; the constructor copies what it needs.
  explicit OwningSsorPreconditioner(const CsrMatrix& matrix) : matrix_(matrix) {}

  void apply(const std::vector<double>& r, std::vector<double>& z) const;

 private:
  CsrMatrix matrix_;  // owned copy: cannot dangle
};

class CachingSolver {
 private:
  std::unique_ptr<Preconditioner> precond_;         // owned preconditioner
  std::shared_ptr<const CsrMatrix> shared_matrix_;  // shared ownership
};

inline double first_diagonal(const CsrMatrix& matrix) {
  const CsrMatrix* local = &matrix;  // local borrow, dies with the call
  return local->diagonal(0);
}

// An allowlisted view member carries its lifetime argument inline.
class ScratchView {
 private:
  // ph-lint: allow(ownership) borrowed for one solve; caller outlives us by contract
  const CsrMatrix* matrix_ = nullptr;
};

}  // namespace photherm::math
