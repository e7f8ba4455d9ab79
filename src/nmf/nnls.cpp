#include "nmf/nnls.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"

namespace aspe::nmf {

using linalg::ConstVecView;
using linalg::Matrix;
using linalg::VecView;

void NnlsWorkspace::clear() {
  passive_.clear();
  std::fill(in_passive_.begin(), in_passive_.end(), std::uint8_t{0});
}

void NnlsWorkspace::seed_from_support(ConstVecView x) {
  passive_.clear();
  in_passive_.assign(x.size(), 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0.0) {
      passive_.push_back(i);
      in_passive_[i] = 1;
    }
  }
}

void NnlsWorkspace::ensure_capacity(std::size_t k, std::size_t n) {
  if (l_.rows() >= k) return;
  // Geometric growth, clamped to the Gram dimension (the support can never
  // exceed it). Valid rows are preserved; refactor_from recomputes the rest.
  const std::size_t cap =
      std::min(std::max({k, 2 * l_.rows(), std::size_t{8}}), n);
  Matrix grown(cap, cap, 0.0);
  for (std::size_t i = 0; i < l_.rows(); ++i) {
    const double* src = l_.row_ptr(i);
    std::copy(src, src + i + 1, grown.row_ptr(i));
  }
  l_ = std::move(grown);
}

// The kernels below keep linalg::Cholesky's per-entry arithmetic and
// shorten only the dependency chains: independent sums run side by side,
// each still started at 0.0 and added in ascending index order, so the bits
// are those of the one-row-at-a-time loops
// (Nnls.PaperCellSelectionPinnedBitwise,
// Nnls.BlockedRefreshMatchesScalarReference). The raw row loops carry no
// bounds checks: tools/run_asan.sh's NNLS pre-pass is their check.
std::size_t cholesky_rows(const Matrix& g, std::span<const std::size_t> idx,
                          std::size_t from, Matrix& l) {
  const std::size_t k = idx.size();
  // Row i in scalar order from column j0 on (entries < j0 already written),
  // then its pivot. False when the pivot is not positive and finite.
  const auto finish_row = [&](std::size_t i, std::size_t j0) {
    const double* g_row = g.row_ptr(idx[i]);
    double* l_row = l.row_ptr(i);
    for (std::size_t j = j0; j < i; ++j) {
      const double* l_prev = l.row_ptr(j);
      double s = 0.0;
      for (std::size_t t = 0; t < j; ++t) s += l_row[t] * l_prev[t];
      l_row[j] = (g_row[idx[j]] - s) / l_prev[j];
    }
    double s = 0.0;
    for (std::size_t t = 0; t < i; ++t) s += l_row[t] * l_row[t];
    const double diag = g_row[idx[i]] - s;
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    l_row[i] = std::sqrt(diag);
    return true;
  };
  std::size_t i = from;
  for (; i + 4 <= k; i += 4) {
    // Four rows at a time. Left of their 4x4 diagonal block, column j of
    // each row needs only that row's earlier entries and factor row j: four
    // independent chains that share each l_prev load.
    double* r0 = l.row_ptr(i);
    double* r1 = l.row_ptr(i + 1);
    double* r2 = l.row_ptr(i + 2);
    double* r3 = l.row_ptr(i + 3);
    const double* g0 = g.row_ptr(idx[i]);
    const double* g1 = g.row_ptr(idx[i + 1]);
    const double* g2 = g.row_ptr(idx[i + 2]);
    const double* g3 = g.row_ptr(idx[i + 3]);
    for (std::size_t j = 0; j < i; ++j) {
      const double* l_prev = l.row_ptr(j);
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t t = 0; t < j; ++t) {
        const double p = l_prev[t];
        s0 += r0[t] * p;
        s1 += r1[t] * p;
        s2 += r2[t] * p;
        s3 += r3[t] * p;
      }
      const std::size_t gj = idx[j];
      const double pivot = l_prev[j];
      r0[j] = (g0[gj] - s0) / pivot;
      r1[j] = (g1[gj] - s1) / pivot;
      r2[j] = (g2[gj] - s2) / pivot;
      r3[j] = (g3[gj] - s3) / pivot;
    }
    // The diagonal block in scalar order: its rows depend on each other.
    for (std::size_t r = i; r < i + 4; ++r) {
      if (!finish_row(r, i)) return r;
    }
  }
  for (; i < k; ++i) {
    if (!finish_row(i, 0)) return i;
  }
  return k;
}

void cholesky_solve(const Matrix& l, std::span<const std::size_t> idx,
                    ConstVecView f, double* z) {
  const std::size_t k = idx.size();
  // L y = f_idx, two rows at a time: both sums run over t < i in one pass,
  // then row i + 1 adds its term t = i once z[i] is known.
  std::size_t i = 0;
  for (; i + 2 <= k; i += 2) {
    const double* a = l.row_ptr(i);
    const double* b = l.row_ptr(i + 1);
    double sa = 0.0, sb = 0.0;
    for (std::size_t t = 0; t < i; ++t) {
      sa += a[t] * z[t];
      sb += b[t] * z[t];
    }
    z[i] = (f[idx[i]] - sa) / a[i];
    sb += b[i] * z[i];
    z[i + 1] = (f[idx[i + 1]] - sb) / b[i + 1];
  }
  if (i < k) {
    const double* a = l.row_ptr(i);
    double s = 0.0;
    for (std::size_t t = 0; t < i; ++t) s += a[t] * z[t];
    z[i] = (f[idx[i]] - s) / a[i];
  }
  // L^T z = y: column ii of L is read down the rows below the diagonal.
  // Each sum's dependent term z[ii + 1] comes first, so this stays serial.
  for (std::size_t ii = k; ii-- > 0;) {
    double s = 0.0;
    for (std::size_t t = ii + 1; t < k; ++t) s += l(t, ii) * z[t];
    z[ii] = (z[ii] - s) / l(ii, ii);
  }
}

void NnlsWorkspace::refactor_from(const Matrix& g, std::size_t from) {
  const std::size_t k = passive_.size();
  ensure_capacity(k, g.rows());
  if (cholesky_rows(g, passive_, from, l_) != k) {
    throw NumericalError(
        "nnls_gram: passive Gram block is not positive definite");
  }
  factor_rows_ += k - from;
}

void NnlsWorkspace::solve_passive(ConstVecView f) {
  z_.resize(passive_.size());
  cholesky_solve(l_, passive_, f, z_.data());
}

void nnls_gram(const Matrix& g, ConstVecView f, VecView x, NnlsWorkspace& ws) {
  require(g.rows() == g.cols(), "nnls_gram: Gram matrix must be square");
  require(f.size() == g.rows() && x.size() == g.rows(),
          "nnls_gram: dimension mismatch");
  const std::size_t n = g.rows();
  const std::size_t max_outer = 3 * n + 30;
  ws.outer_iterations_ = 0;
  ws.factor_rows_ = 0;
  ws.set_reused_ = false;

  // A workspace carried over from a different problem size starts cold.
  if (!ws.passive_.empty() &&
      (ws.in_passive_.size() != n || ws.passive_.back() >= n)) {
    ws.passive_.clear();
  }
  if (ws.in_passive_.size() != n) ws.in_passive_.assign(n, 0);

  // Scale-aware dual feasibility tolerance.
  double scale = 1.0;
  for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, std::abs(f[i]));
  const double tol = 1e-10 * scale;

  bool warm = !ws.passive_.empty();
  bool have_z = false;
  if (warm) {
    // The Gram matrix changed since the set was recorded (ANLS updates the
    // other factor between half-steps): refactor the inherited passive
    // block against the new G before trusting it. A non-SPD block (possible
    // when the new G shrank the well-conditioned cone) abandons the warm
    // start instead of failing the solve.
    try {
      ws.refactor_from(g, 0);
      ws.solve_passive(f);
      have_z = true;
      // Off-support entries must be exactly zero; the support keeps the
      // caller's previous values as the feasible start of the inner loop.
      for (std::size_t i = 0; i < n; ++i) {
        if (!ws.in_passive_[i]) x[i] = 0.0;
      }
    } catch (const NumericalError&) {
      ws.clear();
      warm = false;
    }
  }
  ws.warm_started_ = warm;
  if (!warm) {
    for (std::size_t i = 0; i < n; ++i) x[i] = 0.0;
  }
  ws.inherited_.assign(ws.passive_.begin(), ws.passive_.end());

  auto write_solution = [&] {
    for (std::size_t i = 0; i < n; ++i) x[i] = 0.0;
    for (std::size_t a = 0; a < ws.passive_.size(); ++a) {
      x[ws.passive_[a]] = ws.z_[a];
    }
  };

  // Inner loop: restore primal feasibility of the passive LS solution.
  // Returns with x holding the (feasible) passive solution.
  auto run_inner = [&](bool z_ready) {
    for (std::size_t inner = 0; inner < 4 * n + 40; ++inner) {
      if (!z_ready) ws.solve_passive(f);
      z_ready = false;
      double alpha = 1.0;
      bool all_positive = true;
      for (std::size_t a = 0; a < ws.passive_.size(); ++a) {
        if (ws.z_[a] > 0.0) continue;
        all_positive = false;
        const std::size_t j = ws.passive_[a];
        const double denom = x[j] - ws.z_[a];
        if (denom > 0.0) alpha = std::min(alpha, x[j] / denom);
      }
      if (all_positive) {
        write_solution();
        return;
      }
      // Step toward z until the first passive variable hits zero. Step
      // values are staged in a buffer because x is zeroed before writing.
      ws.step_.resize(ws.passive_.size());
      for (std::size_t a = 0; a < ws.passive_.size(); ++a) {
        const std::size_t j = ws.passive_[a];
        ws.step_[a] = x[j] + alpha * (ws.z_[a] - x[j]);
      }
      for (std::size_t i = 0; i < n; ++i) x[i] = 0.0;
      for (std::size_t a = 0; a < ws.passive_.size(); ++a) {
        x[ws.passive_[a]] = ws.step_[a];
      }
      // Drop passive variables that became (numerically) zero, compacting
      // the set in place; the factor stays valid above the lowest removed
      // position.
      std::size_t kept = 0;
      std::size_t lowest_removed = ws.passive_.size();
      for (std::size_t a = 0; a < ws.passive_.size(); ++a) {
        const std::size_t j = ws.passive_[a];
        if (x[j] > 1e-12) {
          ws.passive_[kept++] = j;
        } else {
          x[j] = 0.0;
          ws.in_passive_[j] = 0;
          lowest_removed = std::min(lowest_removed, kept);
        }
      }
      if (lowest_removed < ws.passive_.size()) {
        ws.passive_.resize(kept);
        ws.refactor_from(g, lowest_removed);
      }
      if (ws.passive_.empty()) return;
    }
  };

  if (have_z) {
    bool feasible = true;
    for (double z : ws.z_) feasible = feasible && z > 0.0;
    if (feasible) {
      write_solution();
    } else {
      run_inner(true);
    }
  }

  ws.w_.resize(n);
  for (std::size_t outer = 0; outer < max_outer; ++outer) {
    ws.outer_iterations_ = outer + 1;
    // Dual w = f - G x.
    for (std::size_t j = 0; j < n; ++j) ws.w_[j] = f[j];
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] == 0.0) continue;
      const double xi = x[i];
      const double* gi = g.row_ptr(i);
      for (std::size_t j = 0; j < n; ++j) ws.w_[j] -= gi[j] * xi;
    }
    // Most positive dual among active (zero) variables.
    std::size_t enter = n;
    double best = tol;
    for (std::size_t j = 0; j < n; ++j) {
      if (ws.in_passive_[j]) continue;
      if (ws.w_[j] > best) {
        best = ws.w_[j];
        enter = j;
      }
    }
    if (enter == n) break;  // KKT satisfied
    ws.in_passive_[enter] = 1;
    // Sorted insertion keeps the factor canonical; only rows from the
    // insertion position down need recomputing.
    const auto pos =
        std::lower_bound(ws.passive_.begin(), ws.passive_.end(), enter);
    const std::size_t p =
        static_cast<std::size_t>(pos - ws.passive_.begin());
    ws.passive_.insert(pos, enter);
    ws.refactor_from(g, p);
    run_inner(false);
  }
  ws.set_reused_ = warm && ws.passive_ == ws.inherited_;
}

void nnls_gram(const Matrix& g, ConstVecView f, VecView x) {
  NnlsWorkspace ws;
  nnls_gram(g, f, x, ws);
}

Vec nnls_gram(const Matrix& g, const Vec& f) {
  Vec x(g.rows(), 0.0);
  nnls_gram(g, ConstVecView(f), VecView(x));
  return x;
}

Vec nnls(const Matrix& a, const Vec& b) {
  require(a.rows() == b.size(), "nnls: dimension mismatch");
  const std::size_t n = a.cols();
  Matrix g(n, n, 0.0);
  linalg::gemm(1.0, a.cview(), linalg::Op::Transpose, a.cview(),
               linalg::Op::None, 0.0, g.view());
  const Vec f = a.apply_transposed(b);
  Vec x(n, 0.0);
  nnls_gram(g, ConstVecView(f), VecView(x));
  return x;
}

}  // namespace aspe::nmf
