#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/kernels.hpp"

namespace aspe::linalg {

QrDecomposition::QrDecomposition(Matrix a, const QrOptions& options)
    : qr_(std::move(a)), options_(options) {
  require(qr_.rows() >= qr_.cols(), "QrDecomposition: need rows >= cols");
  require(qr_.cols() > 0, "QrDecomposition: empty matrix");
  factor();
}

void QrDecomposition::factor() {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  tau_.assign(n, 0.0);
  const std::size_t nb = std::max<std::size_t>(1, options_.block);

  // s[j]: the reflector's product with panel column k + 1 + j, later its
  // negated update multiplier.
  std::vector<double> s(nb);
  panel_t_.clear();
  Matrix v_panel, work;
  for (std::size_t k0 = 0; k0 < n; k0 += nb) {
    const std::size_t kb = std::min(nb, n - k0);

    // Panel factorization, one reflector at a time. The row-major storage
    // is walked by rows: one pass forms v and its products with every
    // remaining panel column, a second applies the updates. Each product
    // starts at 0.0 and runs in ascending row order, as dot() does, and
    // each update is axpy()'s; see docs/linalg.md for why these loops must
    // stay out of the multiversioned (FMA) code.
    for (std::size_t k = k0; k < k0 + kb; ++k) {
      // Householder vector for column k below row k.
      double norm2 = 0.0;
      for (std::size_t i = k; i < m; ++i) {
        const double x = qr_(i, k);
        norm2 += x * x;
      }
      const double norm = std::sqrt(norm2);
      if (norm == 0.0) {
        tau_[k] = 0.0;  // zero column; R_kk = 0 marks rank deficiency
        continue;
      }
      const double alpha = qr_(k, k) >= 0.0 ? -norm : norm;
      // v = x - alpha e1 (stored in place, normalized so v[0] = 1).
      const double v0 = qr_(k, k) - alpha;
      qr_(k, k) = alpha;
      const double tau = -v0 / alpha;  // beta = 2 / (v^T v) via v0, alpha
      tau_[k] = tau;

      // Apply H = I - tau v v^T to the remaining columns of the panel:
      // s_j = tau (a_kj + v^T c_j), a_kj -= s_j, c_j -= s_j v.
      const std::size_t w = k0 + kb - k - 1;
      std::fill(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(w), 0.0);
      for (std::size_t i = k + 1; i < m; ++i) {
        double* row = qr_.row_ptr(i) + k;
        const double vi = row[0] /= v0;
        for (std::size_t j = 0; j < w; ++j) s[j] += vi * row[1 + j];
      }
      double* row_k = qr_.row_ptr(k) + k + 1;
      for (std::size_t j = 0; j < w; ++j) {
        const double sj = tau * (row_k[j] + s[j]);
        row_k[j] -= sj;
        s[j] = -sj;
      }
      // axpy skips a zero multiplier, and adding a zero product is not
      // always a no-op (-0.0 + 0.0 = +0.0), so runs of nonzero
      // multipliers are applied and zero ones skipped.
      for (std::size_t j0 = 0; j0 < w;) {
        if (s[j0] == 0.0) {
          ++j0;
          continue;
        }
        std::size_t j1 = j0 + 1;
        while (j1 < w && s[j1] != 0.0) ++j1;
        for (std::size_t i = k + 1; i < m; ++i) {
          double* row = qr_.row_ptr(i) + k;
          const double vi = row[0];
          for (std::size_t j = j0; j < j1; ++j) row[1 + j] += s[j] * vi;
        }
        j0 = j1;
      }
    }

    // Trailing update via compact-WY: C -= V (T^T (V^T C)), applying
    // H_{kb-1} ... H_0 = Q_panel^T to every column right of the panel with
    // two gemms instead of kb rank-1 passes.
    const std::size_t trailing = n - (k0 + kb);
    if (trailing == 0) continue;
    build_v(k0, kb, v_panel);
    Matrix& t_panel = panel_t_.emplace_back();
    build_t(k0, kb, v_panel, t_panel);
    const MatrixView c = qr_.block(k0, k0 + kb, m - k0, trailing);
    work = Matrix(kb, trailing);
    gemm(1.0, v_panel.cview(), Op::Transpose, ConstMatrixView(c), Op::None,
         0.0, work.view(), options_.threads);
    Matrix work2(kb, trailing);
    gemm(1.0, t_panel.cview(), Op::Transpose, work.cview(), Op::None, 0.0,
         work2.view(), options_.threads);
    gemm(-1.0, v_panel.cview(), Op::None, work2.cview(), Op::None, 1.0, c,
         options_.threads);
  }
}

void QrDecomposition::build_v(std::size_t k0, std::size_t kb,
                              Matrix& v) const {
  const std::size_t mk = qr_.rows() - k0;
  // V: unit diagonal, Householder tails below, zeros above.
  v = Matrix(mk, kb, 0.0);
  for (std::size_t i = 0; i < mk; ++i) {
    const double* src = qr_.row_ptr(k0 + i) + k0;
    std::copy(src, src + std::min(i, kb), v.row_ptr(i));
    if (i < kb) v(i, i) = 1.0;
  }
}

void QrDecomposition::build_t(std::size_t k0, std::size_t kb, const Matrix& v,
                              Matrix& t) const {
  const std::size_t mk = v.rows();
  // y(j, c) = V(j:, c)^T v_j for c < j (columns overlap only from row j
  // down), all formed in one pass down the rows; each sum starts at 0.0 at
  // row j and runs in ascending row order, as dot() does.
  Matrix y(kb, kb, 0.0);
  const auto add_row = [&](std::size_t i) {
    const double* vi = v.row_ptr(i);
    for (std::size_t j = 1; j <= std::min(i, kb - 1); ++j) {
      const double vij = vi[j];
      double* yj = y.row_ptr(j);
      for (std::size_t c = 0; c < j; ++c) yj[c] += vi[c] * vij;
    }
  };
  std::size_t i = 1;
  for (; i < std::min(kb, mk); ++i) add_row(i);
  // Below the diagonal block every row feeds every sum: four rows at a
  // time, still adding their terms one by one in row order.
  for (; i + 4 <= mk; i += 4) {
    const double* v0 = v.row_ptr(i);
    const double* v1 = v.row_ptr(i + 1);
    const double* v2 = v.row_ptr(i + 2);
    const double* v3 = v.row_ptr(i + 3);
    for (std::size_t j = 1; j < kb; ++j) {
      const double a0 = v0[j], a1 = v1[j], a2 = v2[j], a3 = v3[j];
      double* yj = y.row_ptr(j);
      for (std::size_t c = 0; c < j; ++c) {
        double sum = yj[c];
        sum += v0[c] * a0;
        sum += v1[c] * a1;
        sum += v2[c] * a2;
        sum += v3[c] * a3;
        yj[c] = sum;
      }
    }
  }
  for (; i < mk; ++i) add_row(i);
  // T: forward accumulation of the triangular WY factor,
  //   T_j = [ T_{j-1}  -tau_j T_{j-1} (V_{j-1}^T v_j) ]
  //         [    0                tau_j               ]
  // A tau of zero (zero column) makes H_j = I and the whole column of T
  // zero, which the recurrence produces naturally.
  t = Matrix(kb, kb, 0.0);
  for (std::size_t j = 0; j < kb; ++j) {
    const double tau = tau_[k0 + j];
    const double* yj = y.row_ptr(j);
    for (std::size_t rr = 0; rr < j; ++rr) {
      double s = 0.0;
      for (std::size_t c = rr; c < j; ++c) s += t(rr, c) * yj[c];
      t(rr, j) = -tau * s;
    }
    t(j, j) = tau;
  }
}

Matrix QrDecomposition::thin_q() const {
  const std::size_t m = rows();
  const std::size_t n = cols();
  // Q = (I - V_0 T_0 V_0^T) ... (I - V_p T_p V_p^T) I_{m x n}: apply the
  // panels to the identity in reverse order; panel k0 only touches rows
  // k0 and below.
  Matrix q(m, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) q(i, i) = 1.0;
  const std::size_t nb = std::max<std::size_t>(1, options_.block);
  const std::size_t panels = (n + nb - 1) / nb;
  Matrix v_panel, last_t;
  for (std::size_t p = panels; p-- > 0;) {
    const std::size_t k0 = p * nb;
    const std::size_t kb = std::min(nb, n - k0);
    build_v(k0, kb, v_panel);
    // factor() kept T for every panel but the last.
    if (p >= panel_t_.size()) build_t(k0, kb, v_panel, last_t);
    const Matrix& t_panel = p < panel_t_.size() ? panel_t_[p] : last_t;
    const MatrixView c = q.block(k0, 0, m - k0, n);
    Matrix work(kb, n);
    gemm(1.0, v_panel.cview(), Op::Transpose, ConstMatrixView(c), Op::None,
         0.0, work.view(), options_.threads);
    Matrix work2(kb, n);
    gemm(1.0, t_panel.cview(), Op::None, work.cview(), Op::None, 0.0,
         work2.view(), options_.threads);
    gemm(-1.0, v_panel.cview(), Op::None, work2.cview(), Op::None, 1.0, c,
         options_.threads);
  }
  return q;
}

Vec QrDecomposition::apply_qt(const Vec& b) const {
  const std::size_t m = rows();
  const std::size_t n = cols();
  require(b.size() == m, "QrDecomposition::apply_qt: dimension mismatch");
  Vec y = b;
  const VecView yv(y);
  for (std::size_t k = 0; k < n; ++k) {
    if (tau_[k] == 0.0) continue;
    const ConstVecView v = qr_.col_view(k).subvec(k + 1, m - k - 1);
    const VecView tail = yv.subvec(k + 1, m - k - 1);
    const double s = tau_[k] * (y[k] + dot(v, tail));
    y[k] -= s;
    axpy(-s, v, tail);
  }
  return y;
}

Vec QrDecomposition::solve(const Vec& b) const {
  const std::size_t n = cols();
  Vec y = apply_qt(b);
  // Back substitution on R.
  const double scale = std::max(qr_.max_abs(), 1.0);
  Vec x(n);
  for (std::size_t kk = n; kk-- > 0;) {
    double s = y[kk];
    for (std::size_t j = kk + 1; j < n; ++j) s -= qr_(kk, j) * x[j];
    const double rkk = qr_(kk, kk);
    if (std::abs(rkk) <= 1e-12 * scale) {
      throw NumericalError("QrDecomposition::solve: rank-deficient system");
    }
    x[kk] = s / rkk;
  }
  return x;
}

Matrix QrDecomposition::r() const {
  const std::size_t n = cols();
  Matrix out(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) out(i, j) = qr_(i, j);
  }
  return out;
}

std::size_t QrDecomposition::rank(double rel_tol) const {
  const std::size_t n = cols();
  double largest = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    largest = std::max(largest, std::abs(qr_(i, i)));
  }
  if (largest == 0.0) return 0;
  std::size_t r = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(qr_(i, i)) > rel_tol * largest) ++r;
  }
  return r;
}

Vec solve_least_squares_qr(const Matrix& a, const Vec& b) {
  require(a.rows() == b.size(), "solve_least_squares_qr: dimension mismatch");
  return QrDecomposition(a).solve(b);
}

}  // namespace aspe::linalg
