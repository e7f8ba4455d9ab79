#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/kernels.hpp"

namespace aspe::linalg {

namespace {
constexpr double kPivotTolerance = 1e-12;
}

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  require(lu_.rows() == lu_.cols(), "LuDecomposition: matrix must be square");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  const double scale = std::max(lu_.max_abs(), 1.0);
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest remaining entry in column k.
    std::size_t pivot_row = k;
    double pivot_val = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > pivot_val) {
        pivot_val = v;
        pivot_row = r;
      }
    }
    if (pivot_val <= kPivotTolerance * scale) {
      singular_ = true;
      continue;  // keep factoring remaining columns for rank queries
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(k, c), lu_(pivot_row, c));
      }
      std::swap(perm_[k], perm_[pivot_row]);
      sign_ = -sign_;
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    // Rank-1 trailing update, row by row: U_r[k+1:] -= factor * U_k[k+1:].
    const ConstVecView pivot_tail =
        lu_.row_view(k).subvec(k + 1, n - k - 1);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) * inv_pivot;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;
      axpy(-factor, pivot_tail, lu_.row_view(r).subvec(k + 1, n - k - 1));
    }
  }
}

Vec LuDecomposition::solve(const Vec& b) const {
  const std::size_t n = dim();
  require(b.size() == n, "LuDecomposition::solve: dimension mismatch");
  Vec y(n);
  solve_into(ConstVecView(b), VecView(y));
  return y;
}

void LuDecomposition::solve_into(ConstVecView b, VecView x) const {
  const std::size_t n = dim();
  require(b.size() == n && x.size() == n,
          "LuDecomposition::solve_into: dimension mismatch");
  if (singular_) {
    throw NumericalError("LuDecomposition::solve: matrix is singular");
  }
  // Forward substitution on the permuted RHS (L has unit diagonal).
  Vec y(n);
  const ConstVecView yv(y);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = b[perm_[i]] - dot(lu_.row_view(i).subvec(0, i), yv.subvec(0, i));
  }
  // Back substitution on U.
  for (std::size_t ii = n; ii-- > 0;) {
    const double s =
        y[ii] - dot(lu_.row_view(ii).subvec(ii + 1, n - ii - 1),
                    yv.subvec(ii + 1, n - ii - 1));
    y[ii] = s / lu_(ii, ii);
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = y[i];
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  const std::size_t n = dim();
  require(b.rows() == n, "LuDecomposition::solve: dimension mismatch");
  if (singular_) {
    throw NumericalError("LuDecomposition::solve: matrix is singular");
  }
  // Row-oriented substitution over all right-hand sides at once: row i of X
  // is updated by whole contiguous rows, skipping exact-zero L/U entries.
  // Every element still receives the sum solve_into's dot gives it — same
  // terms, same ascending order, starting from +0 — minus exact-zero terms,
  // which cannot change a sum that starts at +0. So each column of X is
  // bitwise what solve_into would return for it (for finite data).
  const std::size_t k = b.cols();
  Matrix x(n, k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = lu_.row_ptr(i);
    double* xi = x.row_ptr(i);  // accumulates sum_j L_ij y_j, then y_i
    for (std::size_t j = 0; j < i; ++j) {
      const double l = li[j];
      if (l == 0.0) continue;
      const double* xj = x.row_ptr(j);
      for (std::size_t c = 0; c < k; ++c) xi[c] += l * xj[c];
    }
    const double* bi = b.row_ptr(perm_[i]);
    for (std::size_t c = 0; c < k; ++c) xi[c] = bi[c] - xi[c];
  }
  Vec acc(k);
  for (std::size_t i = n; i-- > 0;) {
    const double* ui = lu_.row_ptr(i);
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double u = ui[j];
      if (u == 0.0) continue;
      const double* xj = x.row_ptr(j);
      for (std::size_t c = 0; c < k; ++c) acc[c] += u * xj[c];
    }
    double* xi = x.row_ptr(i);
    const double pivot = ui[i];
    for (std::size_t c = 0; c < k; ++c) xi[c] = (xi[c] - acc[c]) / pivot;
  }
  return x;
}

Matrix LuDecomposition::inverse() const {
  return solve(Matrix::identity(dim()));
}

double LuDecomposition::determinant() const {
  if (singular_) return 0.0;
  double det = sign_;
  for (std::size_t i = 0; i < dim(); ++i) det *= lu_(i, i);
  return det;
}

double LuDecomposition::pivot_ratio() const {
  if (singular_ || dim() == 0) return 0.0;
  double lo = std::abs(lu_(0, 0));
  double hi = lo;
  for (std::size_t i = 1; i < dim(); ++i) {
    const double p = std::abs(lu_(i, i));
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  return hi == 0.0 ? 0.0 : lo / hi;
}

}  // namespace aspe::linalg
