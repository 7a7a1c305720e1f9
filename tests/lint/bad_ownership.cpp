// photherm_lint fixture: the ownership rule MUST fire on this file.
//
// Reconstruction of the PR 6 SsorPreconditioner bug: the preconditioner
// captured a raw `const CsrMatrix*` into a matrix it did not own, so a
// caller could free or mutate the matrix between build() and apply() and
// the triangular sweeps would read dangling or stale data. The fix (and
// the invariant this rule enforces) is that every holder owns its data.
// Fixtures are scanned, not compiled.

#include "math/csr_matrix.hpp"
#include "math/preconditioner.hpp"

namespace photherm::math {

class DanglingSsorPreconditioner {
 public:
  explicit DanglingSsorPreconditioner(const CsrMatrix& matrix) : matrix_(&matrix) {}

  void apply(const std::vector<double>& r, std::vector<double>& z) const;

 private:
  const CsrMatrix* matrix_;  // the PR 6 bug: non-owning view member
};

// Reference members are the same hazard (and additionally pin the class to
// one binding for its whole lifetime).
struct MatrixView {
  const CsrMatrix& op;
};

// NSDMI spelling of the same pointer member.
class MeshProbe {
 private:
  const mesh::RectilinearMesh* mesh_ = nullptr;
};

}  // namespace photherm::math
