// Algorithm 3 — Sparse Non-negative Matrix Factorization (SNMF): the COA
// attack on MKFSE (§V.B, Security Risk 3).
//
// From ciphertexts alone the adversary computes the inner-product matrix
// R[i][j] = I'_i^T T'_j = I_i^T T_j (Eq. (16)), factorizes R ~= I^T T into
// two d-row non-negative matrices with the sparse-NMF objective (Eq. (18)),
// keeps the best of L restarts, and binarizes at threshold theta = 0.5.
// The columns of the factors are the reconstructed indexes I*_i and
// trapdoors T*_j.
//
// Signature convention (docs/api.md): inputs first, options next, the
// ExecContext (threads / seed / memory budget / telemetry sink) last, both
// defaulted.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/exec_context.hpp"
#include "core/telemetry.hpp"
#include "linalg/matrix.hpp"
#include "linalg/truncated_svd.hpp"
#include "nmf/nmf.hpp"
#include "sse/adversary_view.hpp"

namespace aspe::core {

struct SnmfAttackOptions {
  std::size_t rank = 0;      // d — dimensionality of indexes/trapdoors
  double theta = 0.5;        // binarization threshold (the paper's choice)
  std::size_t restarts = 3;  // L — number of sparse_NMF runs
  nmf::SparseNmfOptions nmf;
  /// Relative tolerance of the latent-dimension estimate used when
  /// rank == 0 (forwarded to estimate_latent_dimension). Part of the
  /// estimation identity: anything caching an estimated rank must key on it
  /// alongside the corpus fingerprint and seed.
  double rank_tol = 1e-8;
  /// ANLS iteration budget of one warm resume (CoaSession's incremental
  /// attack; 0 = nmf.max_iterations). A warm seed restarts one run instead
  /// of the L-restart sweep, and every appended batch buys it another
  /// budget's worth of polish on nearly the same matrix — so a small
  /// per-delta budget amortizes to at least the batch pipeline's quality
  /// (by its own objective) at a fraction of the iterations.
  std::size_t resume_iterations = 40;
};

struct SnmfAttackResult {
  std::vector<BitVec> indexes;    // I*_i, one per ciphertext index
  std::vector<BitVec> trapdoors;  // T*_j, one per ciphertext trapdoor
  double best_fit_error = 0.0;    // ||R - W^T H||_F of the selected run
  /// Wall time, span summary and counter snapshot for this run. Driver
  /// counters: "snmf.restarts_run", "snmf.nmf_iterations",
  /// "snmf.selected_restart" (and "snmf.resumes" on the CoaSession resume
  /// path).
  AttackTelemetry telemetry;
};

/// R[i][j] = I'_i^T T'_j — all the COA adversary needs. The all-pairs sweep
/// fans rows out over `threads` (0 = process default); every entry is
/// written exactly once, so the result is identical at any width.
[[nodiscard]] linalg::Matrix build_score_matrix(
    const std::vector<scheme::CipherPair>& cipher_indexes,
    const std::vector<scheme::CipherPair>& cipher_trapdoors,
    std::size_t threads = 0);

/// Zero-copy / out-of-core overload over pre-stacked ciphertext halves —
/// exactly the views an io::MappedCorpus cipher database exposes
/// (corpus.a_half() / corpus.b_half()), so the gemms read the mapped pages
/// directly. The output is built in row tiles sized from
/// ctx.memory_budget_bytes (one tile when 0); each tile runs under a
/// "score/shard" span and bumps the "shard.count" counter. Rounding to the
/// underlying integer scores makes the result bit-identical at any tile
/// size and thread count.
[[nodiscard]] linalg::Matrix build_score_matrix(
    linalg::ConstMatrixView index_a, linalg::ConstMatrixView index_b,
    linalg::ConstMatrixView trapdoor_a, linalg::ConstMatrixView trapdoor_b,
    const ExecContext& ctx = {});

/// Estimate the latent dimension d from the score matrix alone:
/// R = I^T T has rank <= d, with equality once enough (dense-enough)
/// indexes and trapdoors are observed. Lets a COA adversary run Algorithm 3
/// without knowing the scheme's bloom-filter length a priori.
///
/// Large inputs go through the randomized truncated SVD
/// (linalg::TruncatedSvd) with an escalating sample size, returning as soon
/// as the residual certificate *proves* the rank at rel_tol; ambiguous
/// spectra (and small inputs) run the full Jacobi SVD, whose convergence is
/// asserted (NumericalError on max_sweeps exhaustion — a silent
/// half-converged factorization would rank garbage). ctx supplies the
/// Gaussian sample stream (ctx.seed) and the gemm/QR thread budget; the
/// estimate is bit-identical at any thread count.
[[nodiscard]] std::size_t estimate_latent_dimension(
    const linalg::Matrix& scores, double rel_tol = 1e-8,
    const ExecContext& ctx = {});

/// Rvalue overload: donates the caller's matrix to the SVD working storage
/// on the full-SVD rows >= cols path, skipping the full-matrix copy.
[[nodiscard]] std::size_t estimate_latent_dimension(linalg::Matrix&& scores,
                                                    double rel_tol = 1e-8,
                                                    const ExecContext& ctx = {});

/// View overload for mapped / non-owning score matrices (e.g. an
/// io::MappedCorpus score-matrix container): the truncated path samples the
/// view in place; the full-SVD fallback copies once into working storage.
[[nodiscard]] std::size_t estimate_latent_dimension(
    linalg::ConstMatrixView scores, double rel_tol = 1e-8,
    const ExecContext& ctx = {});

/// Stateful overload for growing score matrices (CoaSession): when `state`
/// holds the truncated factorization of a leading block of `scores`, the new
/// trailing columns and rows are folded in through TruncatedSvd::update_cols
/// / update_rows (span "svd/update") and the residual certificate is
/// re-checked — an O((l+k)^2 (m+n)) update instead of a fresh O(m n l)
/// sample. Only when the updated certificate fails does it fall back to the
/// escalating fresh-sample loop (and then the full Jacobi SVD), storing
/// whatever certified state it ends with back into `state` (reset when the
/// full SVD decided, or when the input is below the truncated crossover).
/// The returned rank always equals the stateless overloads'.
[[nodiscard]] std::size_t estimate_latent_dimension(
    linalg::ConstMatrixView scores,
    std::optional<linalg::TruncatedSvd>& state, double rel_tol = 1e-8,
    const ExecContext& ctx = {});

/// Run Algorithm 3 on a ciphertext-only view. For a fixed ctx.seed the
/// result is bit-identical for every ctx.threads and with or without a
/// telemetry sink.
[[nodiscard]] SnmfAttackResult run_snmf_attack(const sse::CoaView& view,
                                               const SnmfAttackOptions& options,
                                               const ExecContext& ctx = {});

/// Run Algorithm 3 on a precomputed score matrix.
[[nodiscard]] SnmfAttackResult run_snmf_attack(const linalg::Matrix& scores,
                                               const SnmfAttackOptions& options,
                                               const ExecContext& ctx = {});

/// Expert entry point: best-of-L restarts from caller-supplied
/// initializations (options.restarts is ignored; inits.size() rules).
/// ctx contributes threads and the sink only — no randomness is drawn.
[[nodiscard]] SnmfAttackResult run_snmf_attack(const linalg::Matrix& scores,
                                               std::vector<nmf::NmfInit> inits,
                                               const SnmfAttackOptions& options,
                                               const ExecContext& ctx = {});

// ---- Decomposed restart machinery (shared by run_snmf_attack and
// core::CoaSession, which must keep the selected factorization alive as the
// warm seed of its next incremental resume).

/// The winner of a best-of-L restart sweep, before balancing/thresholding.
struct SnmfSelection {
  nmf::NmfResult factorization;      // un-balanced W/H of the selected run
  std::size_t selected_restart = 0;  // restart id of the winner
  std::size_t restarts_run = 0;
  std::size_t nmf_iterations = 0;  // summed over all restarts
};

/// Draw the L restart initializations exactly as run_snmf_attack(scores,
/// options, ctx) does: in restart order from one rng::Rng(ctx.seed) stream.
[[nodiscard]] std::vector<nmf::NmfInit> draw_snmf_inits(
    const linalg::Matrix& scores, const SnmfAttackOptions& options,
    const ExecContext& ctx = {});

/// Best-of-L restarts from pre-drawn initializations (Algorithm 3's loop):
/// runs in parallel under ctx, selects the lowest objective (ties toward the
/// smallest restart id), and returns the winning factorization un-binarized.
[[nodiscard]] SnmfSelection run_snmf_restarts(const linalg::Matrix& scores,
                                              const SnmfAttackOptions& options,
                                              std::vector<nmf::NmfInit> inits,
                                              const ExecContext& ctx = {});

/// Balance + threshold a selection into the attack result (Algorithm 3's
/// ConvertToBinaryMatrix step) and populate the driver counters. The
/// selection's factors are copied, not consumed — sessions keep them.
[[nodiscard]] SnmfAttackResult binarize_snmf_selection(
    const SnmfSelection& selection, const SnmfAttackOptions& options);

}  // namespace aspe::core
