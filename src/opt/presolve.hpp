// Presolve for linear / mixed-integer models.
//
// Standard reductions applied before the simplex / branch-and-bound:
//   * bound tightening from single-constraint activity analysis,
//   * detection of trivially infeasible or redundant rows,
//   * rounding of integer-variable bounds,
//   * fixing of variables whose bounds have collapsed.
//
// The attack models benefit directly: Eq. (14)'s band constraints often pin
// rhat/that into a narrow box, which shrinks the B&B tree.
#pragma once

#include "opt/model.hpp"

namespace aspe::opt {

struct PresolveResult {
  /// The model became trivially infeasible (empty domain or a row that can
  /// never be satisfied at the variable bounds).
  bool infeasible = false;
  /// Number of bound changes applied.
  std::size_t bounds_tightened = 0;
  /// Number of rows proven redundant (satisfied for every point in the box).
  std::size_t redundant_rows = 0;
  /// Number of variables fixed (lb == ub after tightening).
  std::size_t variables_fixed = 0;
  /// Rounds of propagation executed.
  std::size_t rounds = 0;
};

struct PresolveOptions {
  std::size_t max_rounds = 10;
  double feas_tol = 1e-9;
};

/// Tighten `model` in place. Never removes rows or variables (indices stay
/// stable); redundant rows are only counted, infeasibility is only reported.
[[nodiscard]] PresolveResult presolve(Model& model,
                                      const PresolveOptions& options = {});

}  // namespace aspe::opt
