#include "nmf/nmf.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "linalg/svd.hpp"
#include "linalg/truncated_svd.hpp"
#include "nmf/nnls.hpp"
#include "obs/obs.hpp"
#include "par/parallel.hpp"

namespace aspe::nmf {

using linalg::Matrix;
using linalg::Op;

namespace {

// Loops below this many scalar operations run serially; the pool dispatch
// costs more than it saves on the small factors of the unit tests.
constexpr std::size_t kParallelWorkThreshold = std::size_t{1} << 16;

// Inputs whose small side is below this run NNDSVD through the full Jacobi
// SVD; above it the randomized truncated path wins (same crossover as
// core::estimate_latent_dimension).
constexpr std::size_t kTruncatedInitMinDim = 128;

/// parallel_for with a work gate: fans out only when count * work_per_item
/// justifies it. Every call site writes disjoint state per index, so the
/// parallel and serial paths are bit-identical.
template <class Fn>
void for_each_index(std::size_t count, std::size_t work_per_item,
                    std::size_t threads, Fn&& fn) {
  if (count > 1 && count * work_per_item >= kParallelWorkThreshold) {
    const std::size_t grain = std::max<std::size_t>(
        1, kParallelWorkThreshold / std::max<std::size_t>(work_per_item, 1));
    par::parallel_for(0, count, grain, fn, threads);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

/// G = M M^T for a d x k matrix M (result d x d), via the shared syrk-style
/// gram kernel (upper triangle mirrored, rows parallelized).
Matrix gram_rows(const Matrix& m, std::size_t threads) {
  Matrix g(m.rows(), m.rows());
  linalg::gram(m.cview(), g.view(), threads);
  return g;
}

/// Penalty terms of Eq. (18): eta/2 ||W||_F^2 + lambda/2 sum_j ||h_j||_1^2.
double penalty(const Matrix& w, const Matrix& h, double eta, double lambda) {
  double wfro = 0.0;
  for (auto x : w.data()) wfro += x * x;
  double l1sq = 0.0;
  for (std::size_t j = 0; j < h.cols(); ++j) {
    double colsum = 0.0;
    for (std::size_t k = 0; k < h.rows(); ++k) colsum += h(k, j);
    l1sq += colsum * colsum;
  }
  return 0.5 * eta * wfro + 0.5 * lambda * l1sq;
}

/// Eq. (18) via the Gram identity
///   ||R - W^T H||_F^2 = ||R||_F^2 - 2 <F, W> + <W W^T, H H^T>,  F = H R^T,
/// O(d^2 (m + n)) given F, against the naive O(m n d) residual sweep. F is
/// a by-product of the ANLS W-half-step, so per-iteration convergence
/// checks get it for free. The small clamp absorbs the cancellation
/// roundoff that can push an (exactly tiny) fit a hair negative.
double objective_from_gram(double r_fro2, const Matrix& f_w, const Matrix& w,
                           const Matrix& h, double eta, double lambda,
                           double* fit_error, std::size_t threads) {
  double cross = 0.0;
  {
    const auto& fd = f_w.data();
    const auto& wd = w.data();
    for (std::size_t i = 0; i < fd.size(); ++i) cross += fd[i] * wd[i];
  }
  const Matrix gw = gram_rows(w, threads);
  const Matrix gh = gram_rows(h, threads);
  double quad = 0.0;
  {
    const auto& a = gw.data();
    const auto& b = gh.data();
    for (std::size_t i = 0; i < a.size(); ++i) quad += a[i] * b[i];
  }
  const double fit = std::max(0.0, r_fro2 - 2.0 * cross + quad);
  if (fit_error != nullptr) *fit_error = std::sqrt(fit);
  return 0.5 * fit + penalty(w, h, eta, lambda);
}

/// Batch NNLS statistics of one ANLS half-step, summed serially after the
/// parallel column loop (the per-column numbers live in the workspaces).
struct NnlsBatchStats {
  double solves = 0.0;
  double warm_starts = 0.0;
  double warm_hits = 0.0;

  void absorb(const std::vector<NnlsWorkspace>& ws) {
    solves += static_cast<double>(ws.size());
    for (const auto& w : ws) {
      warm_starts += w.warm_started() ? 1.0 : 0.0;
      warm_hits += w.passive_set_reused() ? 1.0 : 0.0;
    }
  }
};

/// ANLS half step: solve for H in min ||R - W^T H|| + lambda L1^2 columns.
/// Gram trick: G = W W^T + lambda * ones, F = W R.
void update_h_anls(const Matrix& r, const Matrix& w, Matrix& h, double lambda,
                   std::size_t threads, std::vector<NnlsWorkspace>& ws,
                   bool warm, NnlsBatchStats& stats) {
  obs::Span span("nmf/update_h");
  const std::size_t d = w.rows();
  Matrix g = gram_rows(w, threads);
  for (auto& x : g.data()) x += lambda;
  // Tiny ridge keeps principal submatrices SPD when W rows are degenerate.
  for (std::size_t k = 0; k < d; ++k) g(k, k) += 1e-10;
  // F = W R  (d x n) through the blocked gemm kernel.
  const std::size_t n = r.cols();
  Matrix f(d, n);
  linalg::gemm(1.0, w.cview(), Op::None, r.cview(), Op::None, 0.0, f.view(),
               threads);
  // Columns of H are independent NNLS solves — the ANLS hot spot. The view
  // form reads f's column and writes h's column in place: no per-column
  // Vec copies in the loop. Each column owns its workspace, so the warm
  // state threads through the parallel loop without sharing.
  obs::counter_add("nmf.nnls_solves", static_cast<double>(n));
  for_each_index(n, d * d * d + d * d, threads, [&](std::size_t j) {
    if (!warm) ws[j].clear();
    nnls_gram(g, f.col_view(j), h.col_view(j), ws[j]);
  });
  stats.absorb(ws);
}

/// ANLS half step for W: min ||R^T - H^T W|| + eta ||W||^2.
/// Gram: G = H H^T + eta I, F = H R^T. F depends only on (H, R), both
/// fixed for the rest of the iteration, so it is exported through f_w for
/// the objective evaluation that follows.
void update_w_anls(const Matrix& r, Matrix& w, const Matrix& h, double eta,
                   std::size_t threads, std::vector<NnlsWorkspace>& ws,
                   bool warm, NnlsBatchStats& stats, Matrix& f_w) {
  obs::Span span("nmf/update_w");
  const std::size_t d = h.rows();
  Matrix g = gram_rows(h, threads);
  for (std::size_t k = 0; k < d; ++k) g(k, k) += eta + 1e-10;
  // F = H R^T (d x m): transposition is an op flag into gemm, not a copy.
  const std::size_t m = r.rows();
  if (f_w.rows() != d || f_w.cols() != m) f_w = Matrix(d, m);
  linalg::gemm(1.0, h.cview(), Op::None, r.cview(), Op::Transpose, 0.0,
               f_w.view(), threads);
  obs::counter_add("nmf.nnls_solves", static_cast<double>(m));
  for_each_index(m, d * d * d + d * d, threads, [&](std::size_t i) {
    if (!warm) ws[i].clear();
    nnls_gram(g, f_w.col_view(i), w.col_view(i), ws[i]);
  });
  stats.absorb(ws);
}

/// Combine the leading singular triplets (left/right in the factored
/// orientation, i.e. after any transpose swap) into the NNDSVD seed.
void nndsvd_from_triplets(const Matrix& left, const Matrix& right,
                          const Vec& sing, std::size_t rank, bool transposed,
                          Matrix& w, Matrix& h, double fill) {
  const std::size_t m = w.cols();
  const std::size_t n = h.cols();
  const std::size_t k_avail = sing.size();

  for (auto& x : w.data()) x = fill;
  for (auto& x : h.data()) x = fill;

  for (std::size_t t = 0; t < std::min(rank, k_avail); ++t) {
    // Split the t-th pair into positive/negative parts.
    Vec up(left.rows()), un(left.rows());
    for (std::size_t i = 0; i < left.rows(); ++i) {
      up[i] = std::max(left(i, t), 0.0);
      un[i] = std::max(-left(i, t), 0.0);
    }
    Vec vp(right.rows()), vn(right.rows());
    for (std::size_t i = 0; i < right.rows(); ++i) {
      vp[i] = std::max(right(i, t), 0.0);
      vn[i] = std::max(-right(i, t), 0.0);
    }
    auto norm = [](const Vec& v) {
      double s = 0.0;
      for (double x : v) s += x * x;
      return std::sqrt(s);
    };
    const double mp = norm(up) * norm(vp);
    const double mn = norm(un) * norm(vn);
    const Vec& lu = mp >= mn ? up : un;
    const Vec& rv = mp >= mn ? vp : vn;
    const double mass = std::max(mp >= mn ? mp : mn, 1e-300);
    const double scale = std::sqrt(sing[t] * mass);
    const double lu_norm = std::max(norm(lu), 1e-300);
    const double rv_norm = std::max(norm(rv), 1e-300);
    // Row t of W spans the record axis (length m), row t of H the trapdoor
    // axis (length n); undo the transpose swap.
    for (std::size_t i = 0; i < m; ++i) {
      const double val = transposed ? rv[i] / rv_norm : lu[i] / lu_norm;
      w(t, i) += scale * val;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const double val = transposed ? lu[j] / lu_norm : rv[j] / rv_norm;
      h(t, j) += scale * val;
    }
  }
}

/// NNDSVD: seed (W, H) from the leading singular triplets of R, keeping the
/// dominant sign pattern of each rank-1 term (Boutsidis & Gallopoulos 2008,
/// with an "NNDSVDa"-style epsilon fill). W is d x m, H is d x n with
/// R ~= W^T H. Only the leading `rank` triplets are ever read, so on large
/// inputs the randomized truncated SVD (rank + oversample triplets, fixed
/// internal seed) computes exactly what is needed instead of the full
/// spectrum — a numerically different, equally valid initialization. Small inputs, and a projected
/// Jacobi that fails to converge, use the full SVD.
void nndsvd_init(const Matrix& r, std::size_t rank, Matrix& w, Matrix& h,
                 double fill) {
  const std::size_t m = r.rows();
  const std::size_t n = r.cols();
  // Svd needs rows >= cols; factor R or R^T accordingly and swap roles. The
  // transpose is an op flag into the view constructor, not a materialized
  // temporary.
  const bool transposed = m < n;
  const Op op = transposed ? Op::Transpose : Op::None;

  if (std::min(m, n) >= kTruncatedInitMinDim &&
      rank + 8 < std::min(m, n)) {
    obs::Span span("svd/truncated");
    linalg::TruncatedSvdOptions o;
    o.rank = rank;
    // Fixed stream: NNDSVD stays a deterministic function of (R, rank),
    // independent of any caller RNG, like the full-SVD path.
    o.seed = 0x9e3779b97f4a7c15ull;
    const linalg::TruncatedSvd tsvd(r.cview(), op, o);
    if (tsvd.jacobi_converged()) {
      nndsvd_from_triplets(tsvd.u(), tsvd.v(), tsvd.singular_values(), rank,
                           transposed, w, h, fill);
      return;
    }
    // Unconverged projected Jacobi (pathological): fall through to the
    // full factorization below.
  }
  obs::Span span("svd/full");
  const linalg::Svd svd(r.cview(), op);
  // After the swap: left singular vectors correspond to rows of length
  // max(m, n); map them back to the record side / trapdoor side.
  nndsvd_from_triplets(svd.u(), svd.v(), svd.singular_values(), rank,
                       transposed, w, h, fill);
}

}  // namespace

NmfInit nmf_initialize(const Matrix& r, std::size_t rank,
                       const SparseNmfOptions& options, rng::Rng& rng) {
  require(rank > 0, "sparse_nmf: rank must be positive");
  require(r.rows() > 0 && r.cols() > 0, "sparse_nmf: empty input");
  for (auto x : r.data()) {
    require(x >= 0.0, "sparse_nmf: input matrix must be non-negative");
  }
  const std::size_t m = r.rows();
  const std::size_t n = r.cols();

  double mean = 0.0;
  for (auto x : r.data()) mean += x;
  mean /= static_cast<double>(m * n);
  const double init_scale =
      std::sqrt(std::max(mean, 1e-6) / static_cast<double>(rank));
  NmfInit init;
  init.w = Matrix(rank, m);
  init.h = Matrix(rank, n);
  if (options.init == Initialization::Nndsvd) {
    // Deterministic SVD-based seed. The epsilon fill keeps every entry
    // positive: a latent row that started all-zero would stay zero through
    // every ANLS step (each half-step's optimum for it is zero), wasting a
    // dimension whenever R has fewer than `rank` usable singular triplets.
    nndsvd_init(r, rank, init.w, init.h, 0.01 * init_scale);
  } else {
    // Random non-negative init scaled so W^T H matches R's mean magnitude.
    for (auto& x : init.w.data()) x = rng.uniform(0.0, 1.0) * init_scale;
    for (auto& x : init.h.data()) x = rng.uniform(0.0, 1.0) * init_scale;
  }
  return init;
}

namespace {

/// sparse_nmf_from_init, plus `resume` (sparse_nmf_resume): on the warm_start
/// path, treat the init as a near-solution and seed every column's NNLS
/// passive set from the init's support before the first half-step, instead
/// of discovering the supports from zero. That changes nothing but the
/// warm-start state, so the fixed point reached is the same.
NmfResult run_from_init(const Matrix& r, std::size_t rank,
                        const SparseNmfOptions& options, NmfInit init,
                        std::size_t threads, bool resume) {
  require(rank > 0 && init.w.rows() == rank && init.h.rows() == rank,
          "sparse_nmf_from_init: init rank mismatch");
  require(init.w.cols() == r.rows() && init.h.cols() == r.cols(),
          "sparse_nmf_from_init: init shape mismatch");

  NmfResult result;
  result.w = std::move(init.w);
  result.h = std::move(init.h);

  obs::Span run_span("nmf/run");
  const bool warm = options.warm_start;

  double r_fro2 = 0.0;
  for (auto x : r.data()) r_fro2 += x * x;

  // Per-column warm-start state, persisted across outer iterations (H
  // columns and W columns are distinct NNLS problem families).
  std::vector<NnlsWorkspace> ws_h(r.cols());
  std::vector<NnlsWorkspace> ws_w(r.rows());
  NnlsBatchStats stats;
  if (warm && resume) {
    // The init is a near-solution (sparse_nmf_resume): arm every column's
    // warm start with its support, so even the first half-steps refactor an
    // inherited passive set instead of rebuilding it from zero.
    for (std::size_t j = 0; j < ws_h.size(); ++j) {
      ws_h[j].seed_from_support(result.h.col_view(j));
    }
    for (std::size_t i = 0; i < ws_w.size(); ++i) {
      ws_w[i].seed_from_support(result.w.col_view(i));
    }
  }

  // F = H R^T, maintained by every update step for the objective below.
  Matrix f_w(rank, r.rows());
  linalg::gemm(1.0, result.h.cview(), Op::None, r.cview(), Op::Transpose, 0.0,
               f_w.view(), threads);

  double prev_obj = objective_from_gram(r_fro2, f_w, result.w, result.h,
                                        options.eta, options.lambda, nullptr,
                                        threads);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    update_h_anls(r, result.w, result.h, options.lambda, threads, ws_h, warm,
                  stats);
    update_w_anls(r, result.w, result.h, options.eta, threads, ws_w, warm,
                  stats, f_w);
    obs::counter_add("nmf.anls_iterations", 1.0);
    result.iterations = it + 1;
    const double obj =
        objective_from_gram(r_fro2, f_w, result.w, result.h, options.eta,
                            options.lambda, nullptr, threads);
    if (std::abs(prev_obj - obj) <=
        options.rel_tol * std::max(1.0, std::abs(prev_obj))) {
      prev_obj = obj;
      break;
    }
    prev_obj = obj;
  }
  result.objective =
      objective_from_gram(r_fro2, f_w, result.w, result.h, options.eta,
                          options.lambda, &result.fit_error, threads);
  if (obs::enabled() && stats.solves > 0.0) {
    obs::counter_add("nnls.solves", stats.solves);
    obs::counter_add("nnls.warm_starts", stats.warm_starts);
    obs::counter_add("nnls.warm_hits", stats.warm_hits);
    // Fraction of solves that finished on the inherited passive set — the
    // quantity that predicts the warm-start payoff for this input.
    obs::gauge_set("nmf.passive_reuse_rate", stats.warm_hits / stats.solves);
  }
  return result;
}

}  // namespace

NmfResult sparse_nmf_from_init(const Matrix& r, std::size_t rank,
                               const SparseNmfOptions& options, NmfInit init,
                               std::size_t threads) {
  return run_from_init(r, rank, options, std::move(init), threads, false);
}

NmfResult sparse_nmf(const Matrix& r, std::size_t rank,
                     const SparseNmfOptions& options, rng::Rng& rng) {
  return sparse_nmf_from_init(r, rank, options,
                              nmf_initialize(r, rank, options, rng));
}

NmfResult sparse_nmf_resume(const Matrix& r, std::size_t rank,
                            const SparseNmfOptions& options,
                            const NmfResult& prev, std::size_t threads) {
  require(rank > 0 && prev.w.rows() == rank && prev.h.rows() == rank,
          "sparse_nmf_resume: rank mismatch with previous factorization");
  const std::size_t m_old = prev.w.cols();
  const std::size_t n_old = prev.h.cols();
  require(m_old > 0 && n_old > 0,
          "sparse_nmf_resume: empty previous factorization");
  require(r.rows() >= m_old && r.cols() >= n_old,
          "sparse_nmf_resume: input shrank below previous factorization");
  const std::size_t m = r.rows();
  const std::size_t n = r.cols();

  obs::Span span("nmf/resume");

  NmfInit init;
  init.w = Matrix(rank, m);
  init.h = Matrix(rank, n);
  for (std::size_t k = 0; k < rank; ++k) {
    std::copy_n(prev.w.row_ptr(k), m_old, init.w.row_ptr(k));
    std::copy_n(prev.h.row_ptr(k), n_old, init.h.row_ptr(k));
  }

  // New H columns — one per appended column of R — from an NNLS projection
  // against the carried W. The fresh W columns are still zero here, so the
  // full-matrix Gram and gemm see exactly the old factor over the old rows:
  // same G = W W^T + lambda (+ ridge) and F = W R as update_h_anls.
  if (n > n_old) {
    const std::size_t c = n - n_old;
    Matrix g = gram_rows(init.w, threads);
    for (auto& x : g.data()) x += options.lambda;
    for (std::size_t k = 0; k < rank; ++k) g(k, k) += 1e-10;
    Matrix f(rank, c);
    linalg::gemm(1.0, init.w.cview(), Op::None, r.block(0, n_old, m, c),
                 Op::None, 0.0, f.view(), threads);
    for_each_index(c, rank * rank * rank + rank * rank, threads,
                   [&](std::size_t j) {
                     NnlsWorkspace ws;
                     nnls_gram(g, f.col_view(j), init.h.col_view(n_old + j),
                               ws);
                   });
  }

  // New W columns — one per appended row of R — against the extended H:
  // G = H H^T + eta (+ ridge) I and F = H R_new^T as in update_w_anls.
  if (m > m_old) {
    const std::size_t k_new = m - m_old;
    Matrix g = gram_rows(init.h, threads);
    for (std::size_t k = 0; k < rank; ++k) g(k, k) += options.eta + 1e-10;
    Matrix f(rank, k_new);
    linalg::gemm(1.0, init.h.cview(), Op::None, r.block(m_old, 0, k_new, n),
                 Op::Transpose, 0.0, f.view(), threads);
    for_each_index(k_new, rank * rank * rank + rank * rank, threads,
                   [&](std::size_t i) {
                     NnlsWorkspace ws;
                     nnls_gram(g, f.col_view(i), init.w.col_view(m_old + i),
                               ws);
                   });
  }

  return run_from_init(r, rank, options, std::move(init), threads, true);
}

void balance_rows(Matrix& w, Matrix& h) {
  require(w.rows() == h.rows(), "balance_rows: rank mismatch");
  for (std::size_t k = 0; k < w.rows(); ++k) {
    double wn = 0.0, hn = 0.0;
    for (std::size_t i = 0; i < w.cols(); ++i) wn = std::max(wn, w(k, i));
    for (std::size_t j = 0; j < h.cols(); ++j) hn = std::max(hn, h(k, j));
    if (wn <= 0.0 || hn <= 0.0) continue;
    // Scale so both rows peak at the same value (geometric mean), keeping
    // the product W^T H unchanged.
    const double target = std::sqrt(wn * hn);
    const double sw = target / wn;
    for (std::size_t i = 0; i < w.cols(); ++i) w(k, i) *= sw;
    const double sh = target / hn;
    for (std::size_t j = 0; j < h.cols(); ++j) h(k, j) *= sh;
  }
}

Matrix to_binary(const Matrix& m, double theta) {
  Matrix b(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      b(i, j) = m(i, j) < theta ? 0.0 : 1.0;
    }
  }
  return b;
}

}  // namespace aspe::nmf
