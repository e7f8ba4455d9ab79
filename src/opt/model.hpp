// Linear / mixed-integer programming model builder.
//
// This module (together with simplex.hpp and mip.hpp) is the in-tree
// substitute for the Gurobi solver used by the paper's MIP attack
// (Algorithm 2). The attack only needs feasibility search over a mixed
// binary/continuous linear system, which this stack provides.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace aspe::opt {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { LessEqual, GreaterEqual, Equal };
enum class VarType { Continuous, Binary, Integer };

/// One term `coef * x[var]` of a linear expression.
struct Term {
  std::size_t var;
  double coef;
};
using LinExpr = std::vector<Term>;

struct Variable {
  double lb = 0.0;
  double ub = kInfinity;
  VarType type = VarType::Continuous;
  std::string name;
};

struct Constraint {
  LinExpr terms;
  Sense sense = Sense::LessEqual;
  double rhs = 0.0;
};

/// A linear model: variables with bounds and types, linear constraints, and a
/// linear objective (minimized by convention; maximize by negating).
class Model {
 public:
  /// Add a variable; returns its index.
  std::size_t add_variable(double lb, double ub,
                           VarType type = VarType::Continuous,
                           std::string name = {});

  /// Convenience: binary variable in {0, 1}.
  std::size_t add_binary(std::string name = {}) {
    return add_variable(0.0, 1.0, VarType::Binary, std::move(name));
  }

  /// Add a constraint; returns its index. Duplicate variable indices in
  /// `terms` are allowed and are summed.
  std::size_t add_constraint(LinExpr terms, Sense sense, double rhs);

  /// Set the (minimization) objective. Default objective is 0, which turns
  /// solves into pure feasibility searches.
  void set_objective(LinExpr objective);

  [[nodiscard]] std::size_t num_variables() const { return vars_.size(); }
  [[nodiscard]] std::size_t num_constraints() const { return cons_.size(); }
  [[nodiscard]] const Variable& variable(std::size_t i) const {
    return vars_[i];
  }
  [[nodiscard]] const Constraint& constraint(std::size_t i) const {
    return cons_[i];
  }
  [[nodiscard]] const LinExpr& objective() const { return objective_; }

  /// True when any variable is Binary or Integer.
  [[nodiscard]] bool has_integer_variables() const;

  /// Objective value of a point.
  [[nodiscard]] double objective_value(const Vec& x) const;

  /// Max constraint violation of a point (0 when feasible w.r.t. rows; does
  /// not check bounds or integrality).
  [[nodiscard]] double max_violation(const Vec& x) const;

  /// Mutable variable bounds (used by branch & bound).
  void set_bounds(std::size_t var, double lb, double ub);

  /// Monotone counter bumped by every set_bounds call. Lets a solver that
  /// mirrors the bounds (SimplexSolver::sync_bounds) skip the re-mirror when
  /// nothing changed.
  [[nodiscard]] std::uint64_t bound_revision() const { return bound_revision_; }

 private:
  std::vector<Variable> vars_;
  std::vector<Constraint> cons_;
  LinExpr objective_;
  std::uint64_t bound_revision_ = 0;
};

}  // namespace aspe::opt
