// Bounded-variable simplex (revised form, dense B^{-1}) with warm starts.
//
// Solves the LP relaxations for the branch-and-bound MIP solver. Variables
// carry individual [lb, ub] bounds (lb finite; ub may be +inf), so binary
// branching does not blow up the row count. Structural columns are stored
// sparse (ascending rows) and slack/artificial columns implicitly; every
// product with a column reads only its nonzeros, in ascending row order.
//
// The solver is persistent and re-entrant: `SimplexSolver` builds the
// constraint matrix once and then supports
//   * cold two-phase primal solves (`solve`) with Devex reference-weight
//     pricing and a Bland-rule anti-cycling fallback,
//   * bound deltas (`set_bounds`) that do not invalidate the basis,
//   * dual-simplex re-optimization (`solve_warm`) from a dual-feasible
//     basis after bounds tighten — the branch-and-bound workhorse,
//   * basis snapshot/restore (`basis` / `restore`) so a tree search can
//     return to any ancestor's basis without re-solving, and
//   * periodic refactorization of B^{-1} from the basis for numerical
//     hygiene (eta-style rank-1 updates drift over long pivot sequences).
//
// Skipping exact-zero column entries and reinverting row-wise (see
// LuDecomposition::solve) leave every value bitwise what the all-dense
// sequential sums give: the sums keep their ascending order, start at +0,
// and a +-0 term cannot change such a sum (no FMA contraction in an ISO
// C++ build without -ffast-math).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "linalg/matrix.hpp"
#include "opt/model.hpp"

namespace aspe::opt {

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

struct LpResult {
  LpStatus status = LpStatus::IterationLimit;
  Vec x;                   // structural variable values (valid when Optimal)
  double objective = 0.0;  // objective at x
  std::size_t iterations = 0;
};

struct SimplexOptions {
  /// Iterations of one optimize pass before switching to the Bland
  /// anti-cycling rule; 0 selects an automatic burn-in based on problem
  /// size. Set to 1 to force Bland pricing from the start (tests).
  std::size_t bland_threshold = 0;
};

/// Feasibility tolerance on basic-variable bounds and phase-1 residual.
inline constexpr double kFeasTol = 1e-7;
/// Reduced-cost optimality tolerance.
inline constexpr double kOptTol = 1e-9;
/// Pivots between dense refactorizations of B^{-1} from the basis.
inline constexpr std::size_t kRefactorInterval = 64;

/// Nonbasic-at-lower / nonbasic-at-upper / basic marker per column.
enum class VarStatus : std::uint8_t { AtLower, AtUpper, Basic };

/// Snapshot of a basis: enough to reproduce the solver's algebraic state
/// (B^{-1} and the basic values are recomputed on restore). Cheap to copy —
/// two index vectors, no m x m matrix.
struct BasisState {
  std::vector<std::size_t> basis;  // basic column per row
  std::vector<VarStatus> status;   // status per column (incl. slacks/arts)
  Vec art_sign;                    // artificial column signs at snapshot time
};

/// Cumulative work counters across the lifetime of one solver.
struct SolverStats {
  std::size_t primal_iterations = 0;
  std::size_t dual_iterations = 0;
  std::size_t refactorizations = 0;
  std::size_t cold_solves = 0;
  std::size_t warm_solves = 0;
  /// Warm solves that tripped the dual iteration limit (or hit numerical
  /// trouble) and restarted as cold primal solves.
  std::size_t dual_fallbacks = 0;
};

/// Persistent, warm-startable simplex over one model's constraint matrix.
///
/// The solver keeps a reference to the model: the matrix and objective are
/// read on demand, variable bounds are mirrored internally and updated via
/// `set_bounds` / `sync_bounds` (a bound change in the model alone is picked
/// up by `sync_bounds`, which is cheap when `Model::bound_revision` is
/// unchanged). The model must outlive the solver, and its variables,
/// constraints and coefficients must not change after construction — only
/// bounds and the objective may.
class SimplexSolver {
 public:
  explicit SimplexSolver(const Model& model, const SimplexOptions& opt = {});

  /// Override the solver's bounds for one structural variable. O(1); does
  /// not touch the model or the basis.
  void set_bounds(std::size_t var, double lb, double ub);

  /// Re-mirror every structural bound from the model. No-op when the model's
  /// bound revision matches the last sync.
  void sync_bounds();

  [[nodiscard]] double lower_bound(std::size_t var) const;
  [[nodiscard]] double upper_bound(std::size_t var) const;

  /// Cold solve: two-phase primal from the all-artificial basis. Resets any
  /// existing basis.
  LpResult solve();

  /// Warm re-solve from the current basis: recomputes the basic values under
  /// the current bounds and runs the bounded dual simplex (the basis of a
  /// previous optimal solve stays dual feasible under any bound change).
  /// Falls back to a cold solve when no basis exists or the dual iteration
  /// limit trips.
  LpResult solve_warm();

  /// True after any successful solve or restore.
  [[nodiscard]] bool has_basis() const { return have_basis_; }

  /// Snapshot the current basis (valid after a successful solve).
  [[nodiscard]] BasisState basis() const;

  /// Restore a snapshot taken from *this solver*. B^{-1} is refactorized
  /// lazily on the next solve_warm.
  void restore(const BasisState& state);

  /// Attach a basis exported by *another solver over an identical model*
  /// (same variables, rows and column layout): restore + pin the artificial
  /// columns to zero, reproducing the exporting solver's post-phase-1 state.
  /// A plain restore is not enough on a never-solved solver — its artificials
  /// still have infinite upper bounds, so a dual re-solve could pivot one
  /// back in and diverge from the exporting solver bit-for-bit.
  void warm_attach(const BasisState& state);

  [[nodiscard]] const SolverStats& stats() const { return stats_; }

 private:
  enum class StepStatus : std::uint8_t { Ok, Optimal, Infeasible, Unbounded };

  void build();
  void reset_to_artificial_basis();
  /// Fix every artificial column to zero (phase 2 and attached bases).
  void pin_artificials();
  void rebuild_phase2_cost();
  [[nodiscard]] double value(std::size_t j) const;
  [[nodiscard]] double col_dot(const Vec& y, std::size_t j) const;
  /// y . A_j for structural column j (y indexed by row).
  [[nodiscard]] double structural_dot(const double* y, std::size_t j) const;
  /// v += alpha * A_j for structural column j.
  void add_structural(double alpha, std::size_t j, Vec& v) const;
  /// d = B^{-1} A_j into the scratch d_; the reference stays valid until the
  /// next call.
  const Vec& compute_d(std::size_t j);
  void recompute_xb();
  bool refactorize();
  void pivot_update(std::size_t r, const Vec& d);
  void clamp_basic_drift();
  void maybe_refactorize();
  LpStatus optimize(const Vec& cost, std::size_t& iteration_counter);
  LpStatus dual_optimize(std::size_t& iteration_counter);
  LpResult extract_result(LpStatus status, std::size_t iterations) const;
  LpResult cold_fallback(std::size_t iterations_so_far);

  const Model& model_;
  SimplexOptions opt_;

  std::size_t n_ = 0;      // structural variables
  std::size_t m_ = 0;      // rows
  std::size_t total_ = 0;  // structural + slack + artificial
  std::size_t slack_begin_ = 0;
  std::size_t art_begin_ = 0;

  // Structural columns of A, compressed: column j's nonzeros are
  // col_val_[col_start_[j] .. col_start_[j+1]) at rows col_row_[...],
  // ascending.
  std::vector<std::size_t> col_start_;
  std::vector<std::size_t> col_row_;
  Vec col_val_;
  std::vector<std::size_t> slack_row_;
  Vec slack_sign_;
  Vec art_sign_;
  Vec rhs_;
  double rhs_scale_ = 1.0;

  Vec lb_, ub_;
  Vec cost2_;    // phase-2 cost (structural objective, padded with zeros)
  Vec cb_;       // scratch: basic costs, refreshed every pricing pass
  Vec weights_;  // Devex reference weights, reset per optimize() call
  Vec d_;        // scratch: the entering column B^{-1} A_j of a pivot
  std::vector<VarStatus> status_;
  std::vector<std::size_t> basis_;      // basic column per row
  std::vector<std::size_t> basis_pos_;  // column -> row (npos when nonbasic)
  Vec xb_;
  linalg::Matrix binv_;

  bool have_basis_ = false;
  bool binv_valid_ = false;
  std::size_t pivots_since_refactor_ = 0;
  std::uint64_t synced_bound_revision_ = 0;
  SolverStats stats_;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Solve the LP relaxation of `model` (integrality ignored). One-shot
/// convenience wrapper over SimplexSolver.
[[nodiscard]] LpResult solve_lp(const Model& model,
                                const SimplexOptions& options = {});

}  // namespace aspe::opt
