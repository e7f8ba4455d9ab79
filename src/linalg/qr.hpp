// Householder QR decomposition.
//
// Used for numerically robust least squares (the normal-equation path in
// solve.hpp squares the condition number; QR does not), for rank checks on
// tall matrices, and as the orthonormalization step of the randomized
// truncated SVD (truncated_svd.hpp). A = Q R with Q orthonormal (m x n,
// thin) and R upper triangular (n x n).
//
// The factorization is blocked: each panel of `QrOptions::block` columns is
// factored one Householder reflector at a time, in passes down the rows of
// the row-major storage, then the trailing columns are updated at once
// through the compact-WY representation Q_panel = I - V T V^T — gemm calls
// through the shared kernel layer instead of one rank-1 update per column.
// A matrix with cols <= block runs the unblocked arithmetic unchanged
// (bit-for-bit the pre-blocked result).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace aspe::linalg {

struct QrOptions {
  /// Panel width of the blocked factorization. Trailing-column updates go
  /// through gemm once per panel; within a panel the update is per-column.
  std::size_t block = 32;
  /// Thread budget for the trailing-update gemms (0 = process default).
  /// The result is bit-identical at any width (gemm's contract).
  std::size_t threads = 0;
};

class QrDecomposition {
 public:
  /// Factor an m x n matrix with m >= n.
  explicit QrDecomposition(Matrix a, const QrOptions& options = {});

  /// Least-squares solution of min ||A x - b||_2.
  /// Throws NumericalError when A is (numerically) rank deficient.
  [[nodiscard]] Vec solve(const Vec& b) const;

  /// The triangular factor R (n x n).
  [[nodiscard]] Matrix r() const;

  /// The thin orthonormal factor Q (m x n), formed explicitly by applying
  /// the Householder panels to the identity in reverse order. Needed when Q
  /// is reused as a dense operand (randomized range finder); prefer
  /// apply_qt when only Q^T b is wanted.
  [[nodiscard]] Matrix thin_q() const;

  /// Apply Q^T to a length-m vector.
  [[nodiscard]] Vec apply_qt(const Vec& b) const;

  /// Numerical rank from |R_ii| relative to the largest diagonal.
  [[nodiscard]] std::size_t rank(double rel_tol = 1e-10) const;

  [[nodiscard]] std::size_t rows() const { return qr_.rows(); }
  [[nodiscard]] std::size_t cols() const { return qr_.cols(); }

 private:
  void factor();
  /// The compact-WY pair (V, T) of the panel starting at column k0, with
  /// Q_panel = I - V T V^T. build_v materializes V, (m - k0) x kb unit
  /// lower-trapezoidal; build_t forms T, kb x kb upper triangular, from it.
  void build_v(std::size_t k0, std::size_t kb, Matrix& v) const;
  void build_t(std::size_t k0, std::size_t kb, const Matrix& v,
               Matrix& t) const;

  Matrix qr_;  // Householder vectors below the diagonal, R on and above
  Vec tau_;    // Householder coefficients
  // T of every panel factor() built for a trailing update (all panels but
  // the last), kept for thin_q.
  std::vector<Matrix> panel_t_;
  QrOptions options_;
};

/// Least squares via QR (preferred over solve_least_squares for
/// ill-conditioned systems).
[[nodiscard]] Vec solve_least_squares_qr(const Matrix& a, const Vec& b);

}  // namespace aspe::linalg
