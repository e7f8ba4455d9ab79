// LU decomposition with partial pivoting.
//
// Workhorse for the LEP attack (Algorithm 1 solves (d+1)x(d+1) systems with
// Gaussian elimination, the complexity the paper quotes in Remark 1) and for
// key-matrix inversion in the encryption schemes.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace aspe::linalg {

class LuDecomposition {
 public:
  /// Factor PA = LU. Does not throw on singular input; check is_singular().
  explicit LuDecomposition(Matrix a);

  /// True when a pivot below `tolerance * max_abs` was hit. Solving with a
  /// singular factorization throws NumericalError.
  [[nodiscard]] bool is_singular() const { return singular_; }

  /// Solve A x = b.
  [[nodiscard]] Vec solve(const Vec& b) const;

  /// Solve A x = b through strided views (b and x may be matrix columns;
  /// they must not alias each other).
  void solve_into(ConstVecView b, VecView x) const;

  /// Solve A X = B for every column of B at once (row-oriented). Each
  /// column is bitwise equal to what solve_into returns for it.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// A^{-1} (throws NumericalError when singular).
  [[nodiscard]] Matrix inverse() const;

  /// det(A) (0 when singular was detected). Beware: over/underflows for
  /// large well-conditioned matrices; prefer pivot_ratio() for conditioning.
  [[nodiscard]] double determinant() const;

  /// min|U_ii| / max|U_ii| — a cheap conditioning proxy that does not
  /// over/underflow. Returns 0 when singular.
  [[nodiscard]] double pivot_ratio() const;

  [[nodiscard]] std::size_t dim() const { return lu_.rows(); }

 private:
  Matrix lu_;                      // packed L (unit diag) and U
  std::vector<std::size_t> perm_;  // row permutation
  int sign_ = 1;                   // permutation sign for determinant
  bool singular_ = false;
};

}  // namespace aspe::linalg
