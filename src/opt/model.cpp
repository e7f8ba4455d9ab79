#include "opt/model.hpp"

#include <cmath>

namespace aspe::opt {

std::size_t Model::add_variable(double lb, double ub, VarType type,
                                std::string name) {
  require(lb <= ub, "Model::add_variable: lb > ub");
  require(std::isfinite(lb), "Model::add_variable: lower bound must be finite");
  if (type == VarType::Binary) {
    require(lb >= 0.0 && ub <= 1.0, "Model::add_variable: binary bounds");
  }
  vars_.push_back(Variable{lb, ub, type, std::move(name)});
  return vars_.size() - 1;
}

std::size_t Model::add_constraint(LinExpr terms, Sense sense, double rhs) {
  for (const auto& t : terms) {
    require(t.var < vars_.size(), "Model::add_constraint: unknown variable");
  }
  cons_.push_back(Constraint{std::move(terms), sense, rhs});
  return cons_.size() - 1;
}

void Model::set_objective(LinExpr objective) {
  for (const auto& t : objective) {
    require(t.var < vars_.size(), "Model::set_objective: unknown variable");
  }
  objective_ = std::move(objective);
}

bool Model::has_integer_variables() const {
  for (const auto& v : vars_) {
    if (v.type != VarType::Continuous) return true;
  }
  return false;
}

double Model::objective_value(const Vec& x) const {
  require(x.size() == vars_.size(), "Model::objective_value: bad point");
  double s = 0.0;
  for (const auto& t : objective_) s += t.coef * x[t.var];
  return s;
}

double Model::max_violation(const Vec& x) const {
  require(x.size() == vars_.size(), "Model::max_violation: bad point");
  double worst = 0.0;
  for (const auto& c : cons_) {
    double lhs = 0.0;
    for (const auto& t : c.terms) lhs += t.coef * x[t.var];
    double v = 0.0;
    switch (c.sense) {
      case Sense::LessEqual:
        v = lhs - c.rhs;
        break;
      case Sense::GreaterEqual:
        v = c.rhs - lhs;
        break;
      case Sense::Equal:
        v = std::abs(lhs - c.rhs);
        break;
    }
    worst = std::max(worst, v);
  }
  return worst;
}

void Model::set_bounds(std::size_t var, double lb, double ub) {
  require(var < vars_.size(), "Model::set_bounds: unknown variable");
  require(lb <= ub, "Model::set_bounds: lb > ub");
  vars_[var].lb = lb;
  vars_[var].ub = ub;
  ++bound_revision_;
}

}  // namespace aspe::opt
