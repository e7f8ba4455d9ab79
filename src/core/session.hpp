// Incremental attack sessions — the online counterparts of the batch attack
// drivers, for the deployment reality the paper's adversary actually faces:
// the ciphertext corpus *grows* (new records are inserted, new queries are
// processed) and the attacker updates their reconstruction after every
// batch of observations instead of recomputing from scratch.
//
//   CoaSession — Algorithm 3 (SNMF, §V.B) over a growing CoaView. The score
//     matrix R grows in place by gemm row/column bands (bit-identical to a
//     batch build_score_matrix of the concatenated view — the integer
//     rounding removes all summation-order jitter), the rank estimate is
//     maintained through TruncatedSvd::update_rows/update_cols with the
//     residual certificate re-checked after every append, and the sparse-NMF
//     factorization warm-restarts from the previous W/H via
//     nmf::sparse_nmf_resume. The *first* attack() of a fresh session is
//     bit-identical to run_snmf_attack on the same data; subsequent resumed
//     attacks converge to the same fixed point up to solver tolerance.
//
//   LepSession — Algorithm 1 (LEP, §III.B) over a growing KpaView. Known
//     pairs extend the pair basis until d+1 independent rows are found, at
//     which point the system matrix A is LU-factored once; every trapdoor
//     or index ciphertext that arrives afterwards costs a single warm
//     back-substitution against the stored factorization (counter
//     "lep.warm_resolves") instead of a fresh attack. result() is
//     bit-identical to run_lep_attack on the concatenated view.
//
// Both sessions carry an ExecContext fixed at construction; appends and
// attacks record under it (spans "coa/append", "svd/update", "lep/append")
// and the telemetry accumulated between attacks is folded into the next
// result. Sessions snapshot to plain data (io/session_io.hpp persists them)
// and restore deterministically.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/exec_context.hpp"
#include "core/lep.hpp"
#include "core/snmf_attack.hpp"
#include "core/telemetry.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/truncated_svd.hpp"
#include "nmf/nmf.hpp"
#include "obs/obs.hpp"
#include "sse/adversary_view.hpp"

namespace aspe::core {

/// Plain-data state of a CoaSession (io/session_io.hpp round-trips it).
/// The truncated-SVD rank state is deliberately absent: it is a cache,
/// re-derived from the score matrix on the first estimate_rank() after a
/// restore.
struct CoaSessionSnapshot {
  linalg::Matrix index_a, index_b;      // stacked index ciphertext halves
  linalg::Matrix trapdoor_a, trapdoor_b;
  linalg::Matrix scores;                // indexes x trapdoors
  std::optional<nmf::NmfResult> factorization;  // warm seed, if attacked
};

/// Online Algorithm 3: grow the score matrix, maintain the rank estimate,
/// warm-restart the factorization. Not thread-safe; parallelism lives in
/// the kernels under the session's ExecContext.
class CoaSession {
 public:
  explicit CoaSession(SnmfAttackOptions options, ExecContext ctx = {});

  /// Restore from a snapshot. Throws InvalidArgument on inconsistent
  /// shapes (half/score row counts, factorization dimensions).
  CoaSession(CoaSessionSnapshot snapshot, SnmfAttackOptions options,
             ExecContext ctx = {});

  /// Fold a batch of new ciphertexts in: stacks the halves, grows the score
  /// matrix by a column band (old indexes x new trapdoors) and a row band
  /// (new indexes x all trapdoors) — two gemms plus the integer rounding,
  /// so the grown matrix is bit-identical to a batch build of the
  /// concatenated view at any thread count. An empty delta is a no-op.
  /// Span "coa/append"; counters "score.appended_rows" /
  /// "score.appended_cols".
  void append_ciphertexts(const sse::CoaView& delta);

  /// Estimate d from the current score matrix, updating the cached
  /// truncated-SVD state incrementally when possible (span "svd/update";
  /// falls back to a fresh sample — and then the full Jacobi SVD — exactly
  /// like the stateless estimate_latent_dimension, returning the identical
  /// rank). Does not modify options().rank; pair with set_rank().
  [[nodiscard]] std::size_t estimate_rank(double rel_tol = 1e-8);

  /// Set the factorization rank d for subsequent attack() calls. Changing
  /// the rank invalidates the warm seed (the next attack runs cold).
  void set_rank(std::size_t rank);

  /// Run Algorithm 3 on the current corpus. The first call of a fresh
  /// session runs the batch restart sweep (bit-identical to
  /// run_snmf_attack for the same options/ctx); later calls warm-restart
  /// from the stored factorization via nmf::sparse_nmf_resume (counter
  /// "snmf.resumes") under the options().resume_iterations budget.
  /// Telemetry accumulated by appends/rank estimates since the previous
  /// attack is folded into the result.
  [[nodiscard]] SnmfAttackResult attack();

  [[nodiscard]] std::size_t num_indexes() const { return scores_.rows(); }
  [[nodiscard]] std::size_t num_trapdoors() const { return scores_.cols(); }
  [[nodiscard]] const linalg::Matrix& scores() const { return scores_; }
  [[nodiscard]] const SnmfAttackOptions& options() const { return options_; }
  [[nodiscard]] const std::optional<nmf::NmfResult>& factorization() const {
    return factorization_;
  }

  [[nodiscard]] CoaSessionSnapshot snapshot() const;

  /// Bytes of matrix storage the session holds: ciphertext halves, score
  /// matrix, warm factorization and truncated-SVD rank state.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  void fold_recording(obs::ScopedRecording& rec, double seconds);

  SnmfAttackOptions options_;
  ExecContext ctx_;
  std::size_t da_ = 0, db_ = 0;  // ciphertext half dimensions
  linalg::Matrix ia_, ib_;       // index halves, one ciphertext per row
  linalg::Matrix ta_, tb_;       // trapdoor halves
  linalg::Matrix scores_;
  std::optional<linalg::TruncatedSvd> svd_state_;
  std::optional<nmf::NmfResult> factorization_;
  // Telemetry recorded by appends / rank estimates since the last attack().
  obs::Summary pending_;
  double pending_seconds_ = 0.0;
};

/// Plain-data state of a LepSession. Only raw observations and solved
/// plaintexts are stored; trackers, LU factorizations and the unpacked
/// queries/records are replayed deterministically on restore.
struct LepSessionSnapshot {
  std::size_t dimension = 0;  // d + 1 (0 until the first known pair)
  std::vector<sse::KnownIndexPair> chosen_pairs;  // accepted basis pairs
  std::vector<scheme::CipherPair> trapdoor_ciphers;
  std::vector<Vec> trapdoors;  // solved plaintext trapdoors (all or none)
  std::vector<scheme::CipherPair> index_ciphers;
  std::vector<Vec> indexes;    // solved plaintext indexes (all or none)
  std::size_t warm_resolves = 0;
};

/// Online Algorithm 1: known pairs and ciphertexts stream in; once each
/// basis completes its LU factorization is kept and every later arrival is
/// recovered by one warm back-substitution. Ciphertexts arriving before
/// the respective basis is ready queue up and are drained the moment it
/// completes.
class LepSession {
 public:
  explicit LepSession(LepOptions options = {}, ExecContext ctx = {});

  /// Restore from a snapshot. Throws InvalidArgument on inconsistent
  /// sizes and NumericalError when a replayed basis is singular.
  LepSession(LepSessionSnapshot snapshot, LepOptions options = {},
             ExecContext ctx = {});

  /// Feed leaked plaintext-ciphertext pairs in arrival order. Pairs beyond
  /// a complete basis are ignored (exactly like the batch scan). When the
  /// basis completes, A is factored and all queued trapdoors are solved.
  void add_known_pairs(const std::vector<sse::KnownIndexPair>& pairs);

  /// Feed newly observed ciphertexts. Solves performed while the session
  /// was already ready() at call entry — both LU bases stored — count as
  /// warm re-solves (counter "lep.warm_resolves"): the marginal
  /// back-substitutions a batch pipeline would redo from scratch. Span
  /// "lep/append".
  void append_ciphertexts(const sse::CoaView& delta);

  [[nodiscard]] bool pair_basis_complete() const { return a_lu_.has_value(); }
  [[nodiscard]] bool trapdoor_basis_complete() const {
    return b_lu_.has_value();
  }
  /// True when result() will succeed.
  [[nodiscard]] bool ready() const {
    return pair_basis_complete() && trapdoor_basis_complete();
  }
  [[nodiscard]] std::size_t dimension() const { return n_; }
  [[nodiscard]] std::size_t num_trapdoors() const {
    return trapdoor_ciphers_.size();
  }
  [[nodiscard]] std::size_t num_indexes() const {
    return index_ciphers_.size();
  }
  [[nodiscard]] std::size_t warm_resolves() const { return warm_resolves_; }

  /// Assemble the full LepResult for the corpus observed so far —
  /// bit-identical (trapdoors, queries, multipliers, indexes, records) to
  /// run_lep_attack on the concatenated view. Throws the batch attack's
  /// NumericalError messages when a basis is still incomplete. Counters
  /// additionally report "lep.warm_resolves".
  [[nodiscard]] LepResult result() const;

  [[nodiscard]] LepSessionSnapshot snapshot() const;

  /// Bytes of vector storage the session holds: observed ciphertexts,
  /// basis pairs, solved plaintexts, and its LU factorizations and
  /// independence trackers (counted at their n x n bound).
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  void factor_pair_basis();
  /// Solve everything newly solvable: queued trapdoors (if the pair basis
  /// is ready), then the sequential basis scan, then queued indexes (if the
  /// trapdoor basis is ready). `trap_warm` / `idx_warm` say whether the
  /// triggering public call found the session ready() on entry — only
  /// those solves count as warm re-solves.
  void advance(bool trap_warm, bool idx_warm);
  void scan_trapdoor_basis();

  LepOptions options_;
  ExecContext ctx_;
  std::size_t n_ = 0;  // d + 1, fixed by the first known pair
  // Trackers materialize with the dimension (IndependenceTracker rejects 0).
  std::optional<linalg::IndependenceTracker> pair_tracker_;
  std::vector<sse::KnownIndexPair> chosen_;
  std::optional<linalg::LuDecomposition> a_lu_;

  std::vector<scheme::CipherPair> trapdoor_ciphers_;
  std::vector<Vec> trapdoors_;  // solved prefix == all of them once a_lu_
  std::vector<Vec> queries_;
  std::vector<double> query_multipliers_;
  std::optional<linalg::IndependenceTracker> trapdoor_tracker_;
  std::vector<std::size_t> basis_ids_;
  std::size_t scanned_for_basis_ = 0;
  std::optional<linalg::LuDecomposition> b_lu_;

  std::vector<scheme::CipherPair> index_ciphers_;
  std::vector<Vec> indexes_;
  std::vector<Vec> records_;
  std::size_t warm_resolves_ = 0;
};

}  // namespace aspe::core
