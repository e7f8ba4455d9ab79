#include "core/snmf_attack.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "linalg/kernels.hpp"
#include "linalg/svd.hpp"
#include "linalg/truncated_svd.hpp"
#include "obs/obs.hpp"
#include "par/parallel.hpp"
#include "rng/rng.hpp"

namespace aspe::core {

using linalg::Matrix;

namespace {

/// Stack one ciphertext half per row (pairs must share dimensions).
Matrix pack_half(const std::vector<scheme::CipherPair>& pairs,
                 std::size_t dim, bool first_half) {
  Matrix out(pairs.size(), dim);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Vec& half = first_half ? pairs[i].a : pairs[i].b;
    require(half.size() == dim, "build_score_matrix: ragged ciphertexts");
    std::copy(half.begin(), half.end(), out.row_ptr(i));
  }
  return out;
}

/// Output rows per shard such that one tile's working set — its slices of
/// the index halves, its output rows, and the (resident-throughout) trapdoor
/// halves — stays near ctx.memory_budget_bytes. 0 budget = one tile.
std::size_t score_tile_rows(std::size_t n, std::size_t m, std::size_t da,
                            std::size_t db, const ExecContext& ctx) {
  if (ctx.memory_budget_bytes == 0) return n;
  const std::size_t per_row = (da + db + m) * sizeof(double);
  const std::size_t resident = (da + db) * m * sizeof(double);
  const std::size_t spare = ctx.memory_budget_bytes > resident
                                ? ctx.memory_budget_bytes - resident
                                : 0;
  return std::clamp<std::size_t>(spare / std::max<std::size_t>(per_row, 1),
                                 1, n);
}

}  // namespace

Matrix build_score_matrix(linalg::ConstMatrixView index_a,
                          linalg::ConstMatrixView index_b,
                          linalg::ConstMatrixView trapdoor_a,
                          linalg::ConstMatrixView trapdoor_b,
                          const ExecContext& ctx) {
  require(index_a.rows() > 0 && trapdoor_a.rows() > 0,
          "build_score_matrix: need ciphertexts on both sides");
  require(index_a.rows() == index_b.rows() &&
              trapdoor_a.rows() == trapdoor_b.rows(),
          "build_score_matrix: a/b half row counts disagree");
  require(index_a.cols() == trapdoor_a.cols() &&
              index_b.cols() == trapdoor_b.cols(),
          "build_score_matrix: index/trapdoor dimensions disagree");
  const std::size_t n = index_a.rows();
  const std::size_t m = trapdoor_a.rows();
  const std::size_t da = index_a.cols();
  const std::size_t db = index_b.cols();
  Matrix r(n, m);
  // cipher_score(I, T) = I_a . T_a + I_b . T_b, so the all-pairs score
  // sweep is two gemms over the stacked ciphertext halves:
  // R = Ia Ta^T + Ib Tb^T (transposition is an op flag, never a copy).
  // Sharding tiles the *output rows*: every R entry is still written by
  // exactly one gemm pair, and the rounding below removes any
  // summation-order jitter between tile sizes, so the result is
  // bit-identical at any budget.
  const std::size_t tile = score_tile_rows(n, m, da, db, ctx);
  for (std::size_t r0 = 0; r0 < n; r0 += tile) {
    const std::size_t nr = std::min(tile, n - r0);
    obs::Span span("score/shard");
    obs::counter_add("shard.count", 1.0);
    auto block = r.view().block(r0, 0, nr, m);
    linalg::gemm(1.0, index_a.block(r0, 0, nr, da), linalg::Op::None,
                 trapdoor_a, linalg::Op::Transpose, 0.0, block, ctx.threads);
    linalg::gemm(1.0, index_b.block(r0, 0, nr, db), linalg::Op::None,
                 trapdoor_b, linalg::Op::Transpose, 1.0, block, ctx.threads);
    // I_i and T_j are binary, so I_i^T T_j is a non-negative integer;
    // rounding removes the encryption's floating-point noise (and any
    // summation-order jitter between the blocked and naive gemm paths).
    par::parallel_for(
        r0, r0 + nr, 1,
        [&](std::size_t i) {
          double* ri = r.row_ptr(i);
          for (std::size_t j = 0; j < m; ++j) {
            ri[j] = std::max(0.0, std::round(ri[j]));
          }
        },
        ctx.threads);
  }
  return r;
}

Matrix build_score_matrix(
    const std::vector<scheme::CipherPair>& cipher_indexes,
    const std::vector<scheme::CipherPair>& cipher_trapdoors,
    std::size_t threads) {
  require(!cipher_indexes.empty() && !cipher_trapdoors.empty(),
          "build_score_matrix: need ciphertexts on both sides");
  const std::size_t da = cipher_indexes[0].a.size();
  const std::size_t db = cipher_indexes[0].b.size();
  const Matrix ia = pack_half(cipher_indexes, da, true);
  const Matrix ib = pack_half(cipher_indexes, db, false);
  const Matrix ta = pack_half(cipher_trapdoors, da, true);
  const Matrix tb = pack_half(cipher_trapdoors, db, false);
  ExecContext ctx;
  ctx.threads = threads;
  return build_score_matrix(ia.cview(), ib.cview(), ta.cview(), tb.cview(),
                            ctx);
}

namespace {

// Score matrices whose small side is below this are ranked by the full
// Jacobi SVD directly — it is already fast there and the randomized path's
// fixed costs (sampling, QR, projected SVD) would not amortize.
constexpr std::size_t kTruncatedMinDim = 128;

/// Full-SVD rank with the convergence assert (a Jacobi factorization that
/// ran out of sweeps is a best-effort iterate, not an SVD; ranking on it
/// would silently return garbage).
std::size_t latent_rank_full(linalg::ConstMatrixView scores, Matrix* donate,
                             double rel_tol) {
  obs::Span span("svd/full");
  std::optional<linalg::Svd> svd;
  // One-sided Jacobi needs rows >= cols; rank is transpose-invariant, so
  // the wide case reads the scores through a transposed view straight into
  // the Svd working storage — no scores.transpose() temporary.
  if (scores.rows() >= scores.cols()) {
    if (donate != nullptr) {
      // The Jacobi sweep rotates in place; moving the caller's matrix into
      // the Svd avoids duplicating the full score matrix.
      svd.emplace(std::move(*donate));
    } else {
      svd.emplace(scores, linalg::Op::None);
    }
  } else {
    svd.emplace(scores, linalg::Op::Transpose);
  }
  if (!svd->converged()) {
    throw NumericalError(
        "estimate_latent_dimension: Jacobi SVD exhausted max_sweeps without "
        "converging; refusing to rank an unconverged factorization");
  }
  return svd->rank(rel_tol);
}

/// Escalating fresh-sample loop of the truncated path. On success the
/// certified TruncatedSvd is left in `state` (for incremental callers);
/// nullopt means no sample size could certify the gap.
std::optional<std::size_t> certified_truncated_rank(
    linalg::ConstMatrixView scores,
    std::optional<linalg::TruncatedSvd>& state, double rel_tol,
    const ExecContext& ctx) {
  const std::size_t minmn = std::min(scores.rows(), scores.cols());
  obs::Span span("svd/truncated");
  // Escalating sample size: start small (rank(R) <= d, typically far
  // below the matrix dimensions), double until the residual certificate
  // proves the count, and give up at ~minmn/2 — the crossover where the
  // randomized path stops being cheaper than one full Jacobi.
  for (std::size_t guess = 32; guess + 8 <= minmn / 2; guess *= 2) {
    linalg::TruncatedSvdOptions opts;
    opts.rank = guess;
    opts.oversample = 8;
    opts.power_iterations = 2;
    opts.seed = ctx.seed;
    opts.threads = ctx.resolved_threads();
    state.emplace(scores, linalg::Op::None, opts);
    obs::counter_add("svd.truncated_runs", 1.0);
    if (const auto rank = state->certified_rank(rel_tol)) {
      obs::gauge_set("svd.truncated_sample",
                     static_cast<double>(state->sample_size()));
      return rank;
    }
  }
  // Flat / ambiguous spectrum: no sample size could certify the gap.
  obs::counter_add("svd.truncated_fallbacks", 1.0);
  state.reset();
  return std::nullopt;
}

std::size_t latent_rank(linalg::ConstMatrixView scores, Matrix* donate,
                        double rel_tol, const ExecContext& ctx) {
  require(scores.rows() > 0 && scores.cols() > 0,
          "estimate_latent_dimension: empty score matrix");
  const std::size_t minmn = std::min(scores.rows(), scores.cols());
  if (minmn >= kTruncatedMinDim) {
    std::optional<linalg::TruncatedSvd> state;
    if (const auto rank =
            certified_truncated_rank(scores, state, rel_tol, ctx)) {
      return *rank;
    }
  }
  return latent_rank_full(scores, donate, rel_tol);
}

}  // namespace

std::size_t estimate_latent_dimension(const Matrix& scores, double rel_tol,
                                      const ExecContext& ctx) {
  return latent_rank(scores.cview(), nullptr, rel_tol, ctx);
}

std::size_t estimate_latent_dimension(Matrix&& scores, double rel_tol,
                                      const ExecContext& ctx) {
  return latent_rank(scores.cview(), &scores, rel_tol, ctx);
}

std::size_t estimate_latent_dimension(linalg::ConstMatrixView scores,
                                      double rel_tol, const ExecContext& ctx) {
  return latent_rank(scores, nullptr, rel_tol, ctx);
}

std::size_t estimate_latent_dimension(linalg::ConstMatrixView scores,
                                      std::optional<linalg::TruncatedSvd>& state,
                                      double rel_tol, const ExecContext& ctx) {
  require(scores.rows() > 0 && scores.cols() > 0,
          "estimate_latent_dimension: empty score matrix");
  const std::size_t minmn = std::min(scores.rows(), scores.cols());
  if (minmn < kTruncatedMinDim) {
    // Below the truncated crossover the full Jacobi decides; any carried
    // sample is from a different regime and would go stale.
    state.reset();
    return latent_rank_full(scores, nullptr, rel_tol);
  }
  if (state.has_value()) {
    const std::size_t m0 = state->u().rows();
    const std::size_t n0 = state->v().rows();
    if (m0 <= scores.rows() && n0 <= scores.cols()) {
      if (m0 < scores.rows() || n0 < scores.cols()) {
        // Fold the growth in: first the new trailing columns restricted to
        // the old rows, then the new full-width rows. Order matters — the
        // column update needs U's row count to match, the row update V's.
        obs::Span span("svd/update");
        if (n0 < scores.cols()) {
          state->update_cols(scores.block(0, n0, m0, scores.cols() - n0));
        }
        if (m0 < scores.rows()) {
          state->update_rows(
              scores.block(m0, 0, scores.rows() - m0, scores.cols()));
        }
        obs::counter_add("svd.updates", 1.0);
      }
      if (state->u().rows() == scores.rows() &&
          state->v().rows() == scores.cols()) {
        if (const auto rank = state->certified_rank(rel_tol)) {
          obs::gauge_set("svd.truncated_sample",
                         static_cast<double>(state->sample_size()));
          return *rank;
        }
        // Updated sample can no longer certify (rank grew past it, gap
        // closed): resample from scratch below.
        obs::counter_add("svd.update_recertify_failures", 1.0);
      }
    }
    // Stale (matrix shrank or shape mismatch) or uncertified state.
    state.reset();
  }
  if (const auto rank = certified_truncated_rank(scores, state, rel_tol, ctx)) {
    return *rank;
  }
  return latent_rank_full(scores, nullptr, rel_tol);
}

/// Best-of-L restarts from pre-drawn initializations (Algorithm 3's loop).
/// Restarts run in parallel; the winner is the lowest objective with ties
/// broken toward the smallest restart id, which is exactly what the serial
/// first-strictly-better scan selects.
SnmfSelection run_snmf_restarts(const Matrix& scores,
                                const SnmfAttackOptions& options,
                                std::vector<nmf::NmfInit> inits,
                                const ExecContext& ctx) {
  require(options.rank > 0, "SNMF attack: rank (d) must be set");
  require(!inits.empty(), "SNMF attack: need at least one restart");
  const std::size_t threads = ctx.resolved_threads();
  const std::size_t restarts = inits.size();
  // Group the restarts so the concurrently-live factor/temporary working
  // sets stay near ctx.memory_budget_bytes (one in-flight restart holds W,
  // H and update temporaries of the same shapes — ~4 * rank * (rows + cols)
  // doubles). Restarts are independent and the winner scan below is
  // order-free, so grouping never changes the selected factorization.
  std::size_t group = restarts;
  if (ctx.memory_budget_bytes > 0) {
    const std::size_t per_restart =
        4 * options.rank * (scores.rows() + scores.cols()) * sizeof(double);
    group = std::clamp<std::size_t>(
        ctx.memory_budget_bytes / std::max<std::size_t>(per_restart, 1), 1,
        restarts);
  }
  std::vector<nmf::NmfResult> runs(restarts);
  {
    obs::Span restarts_span("snmf/restarts");
    for (std::size_t g0 = 0; g0 < restarts; g0 += group) {
      const std::size_t g1 = std::min(restarts, g0 + group);
      obs::Span shard_span("snmf/restart_shard");
      obs::counter_add("shard.count", 1.0);
      par::parallel_for(
          g0, g1, 1,
          [&](std::size_t l) {
            // Inner NMF parallel sections serialize automatically when the
            // restart itself runs inside a pool chunk (nested fallback).
            obs::Span restart_span("snmf/restart");
            runs[l] = nmf::sparse_nmf_from_init(scores, options.rank,
                                                options.nmf,
                                                std::move(inits[l]), threads);
          },
          threads);
    }
  }

  std::size_t best = 0;
  for (std::size_t l = 1; l < restarts; ++l) {
    if (runs[l].objective < runs[best].objective) best = l;
  }
  std::size_t nmf_iterations = 0;
  for (std::size_t l = 0; l < restarts; ++l) {
    nmf_iterations += runs[l].iterations;
  }
  if (obs::enabled()) {
    // Per-restart fit errors, the quantity the best-of-L selection ranks.
    for (std::size_t l = 0; l < restarts; ++l) {
      const std::string name = "snmf.restart_fit_error." + std::to_string(l);
      obs::gauge_set(name.c_str(), runs[l].fit_error);
    }
  }

  SnmfSelection selection;
  selection.factorization = std::move(runs[best]);
  selection.selected_restart = best;
  selection.restarts_run = restarts;
  selection.nmf_iterations = nmf_iterations;
  return selection;
}

SnmfAttackResult binarize_snmf_selection(const SnmfSelection& selection,
                                         const SnmfAttackOptions& options) {
  obs::Span binarize_span("snmf/binarize");
  // Rescale latent rows (W^T H invariant) so the fixed theta is meaningful
  // under NMF's diagonal-scale ambiguity. Balancing rescales in place; work
  // on copies so the caller's selection stays a valid warm seed for the next
  // resume.
  Matrix w = selection.factorization.w;
  Matrix h = selection.factorization.h;
  nmf::balance_rows(w, h);
  const Matrix wb = nmf::to_binary(w, options.theta);
  const Matrix hb = nmf::to_binary(h, options.theta);

  SnmfAttackResult result;
  result.best_fit_error = selection.factorization.fit_error;
  result.telemetry.counters["snmf.restarts_run"] =
      static_cast<double>(selection.restarts_run);
  result.telemetry.counters["snmf.nmf_iterations"] =
      static_cast<double>(selection.nmf_iterations);
  result.telemetry.counters["snmf.selected_restart"] =
      static_cast<double>(selection.selected_restart);
  result.indexes.reserve(wb.cols());
  for (std::size_t i = 0; i < wb.cols(); ++i) {
    BitVec v(options.rank);
    for (std::size_t k = 0; k < options.rank; ++k) {
      v[k] = wb(k, i) != 0.0 ? 1 : 0;
    }
    result.indexes.push_back(std::move(v));
  }
  result.trapdoors.reserve(hb.cols());
  for (std::size_t j = 0; j < hb.cols(); ++j) {
    BitVec v(options.rank);
    for (std::size_t k = 0; k < options.rank; ++k) {
      v[k] = hb(k, j) != 0.0 ? 1 : 0;
    }
    result.trapdoors.push_back(std::move(v));
  }
  return result;
}

std::vector<nmf::NmfInit> draw_snmf_inits(const Matrix& scores,
                                          const SnmfAttackOptions& options,
                                          const ExecContext& ctx) {
  require(options.rank > 0, "SNMF attack: rank (d) must be set");
  require(options.restarts > 0, "SNMF attack: need at least one restart");
  obs::Span span("snmf/draw_inits");
  rng::Rng root_rng(ctx.seed);
  std::vector<nmf::NmfInit> inits;
  inits.reserve(options.restarts);
  // Restart order from one sequential stream: the NMF iterations consume
  // no randomness, so parallel restarts stay bit-identical to the serial
  // loop.
  for (std::size_t l = 0; l < options.restarts; ++l) {
    inits.push_back(
        nmf::nmf_initialize(scores, options.rank, options.nmf, root_rng));
  }
  return inits;
}

SnmfAttackResult run_snmf_attack(const sse::CoaView& view,
                                 const SnmfAttackOptions& options,
                                 const ExecContext& ctx) {
  Stopwatch watch;
  obs::ScopedRecording rec(ctx.sink);
  // Root span only when this overload owns the recording, so the trace has
  // exactly one "snmf/attack" root regardless of the entry point.
  std::optional<obs::Span> root;
  if (rec.active()) root.emplace("snmf/attack");

  Matrix scores;
  {
    obs::Span span("snmf/score_matrix");
    // Pack once, then go through the view overload so ctx's memory budget
    // shards the build exactly as the mapped out-of-core path would.
    require(!view.cipher_indexes.empty() && !view.cipher_trapdoors.empty(),
            "build_score_matrix: need ciphertexts on both sides");
    const std::size_t da = view.cipher_indexes[0].a.size();
    const std::size_t db = view.cipher_indexes[0].b.size();
    const Matrix ia = pack_half(view.cipher_indexes, da, true);
    const Matrix ib = pack_half(view.cipher_indexes, db, false);
    const Matrix ta = pack_half(view.cipher_trapdoors, da, true);
    const Matrix tb = pack_half(view.cipher_trapdoors, db, false);
    scores = build_score_matrix(ia.cview(), ib.cview(), ta.cview(),
                                tb.cview(), ctx);
  }
  SnmfAttackResult result = run_snmf_attack(scores, options, ctx);

  root.reset();
  result.telemetry.wall_seconds = watch.seconds();
  result.telemetry.absorb(rec.finish());
  return result;
}

SnmfAttackResult run_snmf_attack(const Matrix& scores,
                                 const SnmfAttackOptions& options,
                                 const ExecContext& ctx) {
  Stopwatch watch;
  obs::ScopedRecording rec(ctx.sink);
  std::optional<obs::Span> root;
  if (rec.active()) root.emplace("snmf/attack");

  std::vector<nmf::NmfInit> inits = draw_snmf_inits(scores, options, ctx);
  SnmfAttackResult result =
      run_snmf_attack(scores, std::move(inits), options, ctx);

  root.reset();
  result.telemetry.wall_seconds = watch.seconds();
  result.telemetry.absorb(rec.finish());
  return result;
}

SnmfAttackResult run_snmf_attack(const Matrix& scores,
                                 std::vector<nmf::NmfInit> inits,
                                 const SnmfAttackOptions& options,
                                 const ExecContext& ctx) {
  Stopwatch watch;
  obs::ScopedRecording rec(ctx.sink);
  std::optional<obs::Span> root;
  if (rec.active()) root.emplace("snmf/attack");

  SnmfSelection selection =
      run_snmf_restarts(scores, options, std::move(inits), ctx);
  SnmfAttackResult result = binarize_snmf_selection(selection, options);

  root.reset();
  result.telemetry.wall_seconds = watch.seconds();
  result.telemetry.absorb(rec.finish());
  return result;
}

}  // namespace aspe::core
