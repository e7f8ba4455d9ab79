// Algorithm 2 — Mixed Integer Linear Program (MIP): the KPA attack on MRSE
// (§IV.B, Security Risk 2).
//
// The adversary holds m pairs (P_i, I'_i) with binary P_i, the ciphertext
// trapdoor T'_j of one query, and the public noise parameters (mu, sigma).
// Rewriting Eq. (12) as
//
//   E_i.V_j = rhat * I'_i^T T'_j - that - P_i.Q_j     (rhat = 1/r, that = t/r)
//
// and using that E_i.V_j ~ N(mu, sigma^2), the attack searches for
// (rhat > 0, that > 0, Q_j in {0,1}^d, sum Q_j >= 1) such that each noise
// term lies in [mu - l*sigma, mu + l*sigma] (Eq. (14)). Any feasible point
// is returned; the paper sets l = 3 (99% coverage).
//
// The Gurobi solver of the paper is replaced by opt::solve_mip (see
// DESIGN.md §4.1).
#pragma once

#include <cstdint>
#include <optional>

#include "core/exec_context.hpp"
#include "core/telemetry.hpp"
#include "opt/mip.hpp"
#include "sse/adversary_view.hpp"

namespace aspe::core {

/// How the primal heuristic ranks candidate keywords.
enum class RootOrdering {
  /// LP when the model is small enough, correlation otherwise.
  Auto,
  /// Solve the LP relaxation of Eq. (14) at the root (faithful to a
  /// B&B solver's root node, cost grows with the simplex basis ~ (2m)^2).
  LpRelaxation,
  /// Rank keyword k by the empirical correlation between P_i[k] and the
  /// observed scores c_i — records containing a true query keyword score
  /// higher. O(m d), scales to the paper's d = 1000 settings.
  Correlation,
};

struct MipAttackOptions {
  double l = 3.0;  // noise interval half width, in sigmas
  RootOrdering root_ordering = RootOrdering::Auto;
  /// Try the primal heuristic (LP rounding + exact 2-variable refit + greedy
  /// bit-flip repair) before branch and bound. This mirrors the rounding/
  /// diving heuristics a commercial solver such as Gurobi runs at the root
  /// node, and is what makes paper-scale instances tractable.
  bool use_heuristic = true;
  opt::MipOptions solver = default_solver();

  [[nodiscard]] static opt::MipOptions default_solver() {
    opt::MipOptions s;
    s.first_feasible = true;  // Algorithm 2 wants any feasible point
    s.time_limit_seconds = 20.0;
    return s;
  }
};

struct MipAttackResult {
  bool found = false;
  BitVec query;        // reconstructed Q_j
  double rhat = 0.0;   // 1 / r_j
  double that = 0.0;   // t_j / r_j
  /// How the feasible point (or failure) was produced: Heuristic when the
  /// primal heuristic answered and branch and bound never ran; NotRun only
  /// in a default-constructed result.
  opt::MipStatus status = opt::MipStatus::NotRun;
  /// Wall time, span summary and counter snapshot for this run. Driver
  /// counters: "mip.bnb.nodes" and "mip.bnb.simplex_iterations" (both zero
  /// when the heuristic answers), "mip.heuristic.fit_probes",
  /// "mip.model_rows" and "mip.model_cols".
  AttackTelemetry telemetry;
};

/// Persistent cross-job warm state for run_mip_attack: the root-LP basis of
/// the primal heuristic. Keyed by a digest over the *full* numeric content of
/// the built model — two jobs warm-share state only when their models are
/// identical down to every coefficient bit, which (with a deterministic
/// solver) makes the warm answer bit-identical to the cold one. A digest
/// mismatch resets the state and re-exports from the current job.
///
/// The attack canonicalizes its root LP whether or not a state is attached
/// (basis exported, restored, re-solved warm), so solo runs, exporting runs
/// and attaching runs all follow one pivot sequence — into the heuristic and,
/// when it fails, into the branch-and-bound fallback that shares the solver.
struct MipWarmState {
  std::uint64_t model_digest = 0;
  bool has_root_basis = false;
  opt::BasisState root_basis;  // heuristic root-LP basis
};

/// FNV-1a digest over a model's complete numeric content (variable bounds,
/// types, constraint terms, senses, right-hand sides, objective). Used to
/// key MipWarmState.
[[nodiscard]] std::uint64_t mip_model_digest(const opt::Model& model);

/// Attack one ciphertext trapdoor using the KPA view's known pairs.
/// `mu` and `sigma` are MRSE's public noise parameters.
///
/// Signature convention (docs/api.md): inputs first, options next,
/// ExecContext last, both defaulted — the default ExecContext runs serially,
/// matching the historical options-only form.
///
/// The attack runs serially: the primal heuristic scores all d candidate
/// flips or prefixes of a round in one pass over the record matrix
/// (docs/opt.md, "Primal heuristic"), and ctx.threads is not consulted, so
/// the recovered query is the same at any thread count. The attack consumes
/// no randomness; ctx.seed is unused. ctx.sink receives its telemetry.
[[nodiscard]] MipAttackResult run_mip_attack(
    const std::vector<sse::KnownBinaryPair>& known_pairs,
    const scheme::CipherPair& cipher_trapdoor, double mu, double sigma,
    const MipAttackOptions& options = {}, const ExecContext& ctx = {});

/// Variant with a persistent warm state (see MipWarmState): a repeated job
/// whose model digest matches skips the cold root LP, bit-identically. Pass
/// nullptr for the plain behaviour.
[[nodiscard]] MipAttackResult run_mip_attack(
    const std::vector<sse::KnownBinaryPair>& known_pairs,
    const scheme::CipherPair& cipher_trapdoor, double mu, double sigma,
    const MipAttackOptions& options, const ExecContext& ctx,
    MipWarmState* warm);

/// Convenience: attack the j-th observed trapdoor of an MRSE KPA view.
[[nodiscard]] MipAttackResult run_mip_attack(
    const sse::MrseKpaView& view, std::size_t trapdoor_id, double mu,
    double sigma, const MipAttackOptions& options = {},
    const ExecContext& ctx = {});

/// Build the Eq. (14) feasibility model (exposed for tests and ablations).
[[nodiscard]] opt::Model build_mip_attack_model(
    const std::vector<sse::KnownBinaryPair>& known_pairs,
    const scheme::CipherPair& cipher_trapdoor, double mu, double sigma,
    const MipAttackOptions& options);

}  // namespace aspe::core
