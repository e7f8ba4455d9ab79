// Branch-and-bound solver for mixed binary/continuous linear programs.
//
// Together with the simplex this replaces the Gurobi dependency of the
// paper's Algorithm 2 (the MIP attack). The attack uses it as a feasibility
// search: objective 0, stop at the first integer-feasible point — which makes
// depth-first most-fractional branching with nearest-integer-first child
// ordering behave like an LP diving heuristic with backtracking.
//
// The search is plain warm-started depth-first B&B: each node's LP is
// re-optimized by the dual simplex from its parent's basis. Cutting planes,
// reduced-cost fixing, pseudo-cost/strong branching, best-first selection and
// restarts were measured on the attack's own instances and none of them met
// the keep rule there (docs/opt.md, "Why plain warm DFS").
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "opt/model.hpp"
#include "opt/simplex.hpp"

namespace aspe::opt {

enum class MipStatus {
  Optimal,        // proved optimal (search exhausted)
  Feasible,       // integer-feasible found, search stopped early
  Infeasible,     // proved infeasible
  NodeLimit,      // node budget exhausted without a feasible point
  TimeLimit,      // wall-clock budget exhausted without a feasible point
  NotRun,         // the branch-and-bound search was never invoked
  Heuristic,      // feasible point from a primal heuristic; search skipped
};

struct MipResult {
  MipStatus status = MipStatus::NotRun;
  Vec x;                   // best integer-feasible point (when found)
  double objective = 0.0;  // objective at x
  std::size_t nodes_explored = 0;
  double seconds = 0.0;
  std::size_t simplex_iterations = 0;  // total LP pivots across all nodes
  std::size_t lp_warm_solves = 0;      // nodes re-optimized by dual simplex
  std::size_t lp_cold_solves = 0;      // nodes solved from the artificial basis

  [[nodiscard]] bool has_solution() const {
    return status == MipStatus::Optimal || status == MipStatus::Feasible;
  }
};

struct MipOptions {
  /// Stop at the first integer-feasible solution (the attack's mode).
  bool first_feasible = false;
  /// Run presolve (bound tightening) on the root model before the search.
  bool use_presolve = true;
  /// Warm-start each node's LP from its parent's basis via the dual simplex
  /// (cold fallback when the dual iteration limit trips). Off reproduces the
  /// historical cold-solve-per-node behaviour.
  bool warm_start = true;
  std::size_t max_nodes = 200000;
  double time_limit_seconds = 60.0;
  SimplexOptions lp;
};

/// An LP value within this distance of an integer counts as integral.
inline constexpr double kIntTol = 1e-6;

/// Solve a mixed-integer linear program by LP-based branch and bound.
[[nodiscard]] MipResult solve_mip(Model model, const MipOptions& options = {});

/// In-place variant sharing a caller-owned solver (e.g. the MIP attack's
/// root-LP solver, whose basis then warm-starts the root node). Presolve
/// mutates `model` bounds only; `solver` must have been built over `model`.
[[nodiscard]] MipResult solve_mip(Model& model, SimplexSolver& solver,
                                  const MipOptions& options = {});

}  // namespace aspe::opt
