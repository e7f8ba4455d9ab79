#include "opt/presolve.hpp"

#include <cmath>

#include "linalg/matrix_view.hpp"

namespace aspe::opt {

namespace {

using linalg::ConstVecView;

/// Minimum and maximum of a linear expression over the variable box.
struct Activity {
  double lo = 0.0;
  double hi = 0.0;
};

/// Activity against dense bound mirrors read through views — one indexed
/// load per term instead of a Variable struct lookup.
Activity row_activity(const LinExpr& terms, ConstVecView lb, ConstVecView ub) {
  Activity act;
  for (const auto& t : terms) {
    if (t.coef >= 0.0) {
      act.lo += t.coef * lb[t.var];
      act.hi += t.coef * ub[t.var];  // may be +inf
    } else {
      act.lo += t.coef * ub[t.var];  // may be -inf
      act.hi += t.coef * lb[t.var];
    }
  }
  return act;
}

}  // namespace

PresolveResult presolve(Model& model, const PresolveOptions& options) {
  PresolveResult result;

  // Dense lb/ub mirrors of the variable box, kept in sync with every
  // set_bounds call so row_activity never walks the Variable table.
  const std::size_t nvars = model.num_variables();
  Vec lb(nvars), ub(nvars);
  for (std::size_t j = 0; j < nvars; ++j) {
    lb[j] = model.variable(j).lb;
    ub[j] = model.variable(j).ub;
  }
  const ConstVecView lbv(lb);
  const ConstVecView ubv(ub);

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    result.rounds = round + 1;
    bool changed = false;

    for (std::size_t ci = 0; ci < model.num_constraints(); ++ci) {
      const Constraint& row = model.constraint(ci);
      const Activity act = row_activity(row.terms, lbv, ubv);

      // Infeasibility / redundancy detection.
      const double tol = options.feas_tol *
                         (1.0 + std::abs(row.rhs));
      switch (row.sense) {
        case Sense::LessEqual:
          if (act.lo > row.rhs + tol) {
            result.infeasible = true;
            return result;
          }
          if (act.hi <= row.rhs + tol) ++result.redundant_rows;
          break;
        case Sense::GreaterEqual:
          if (act.hi < row.rhs - tol) {
            result.infeasible = true;
            return result;
          }
          if (act.lo >= row.rhs - tol) ++result.redundant_rows;
          break;
        case Sense::Equal:
          if (act.lo > row.rhs + tol || act.hi < row.rhs - tol) {
            result.infeasible = true;
            return result;
          }
          break;
      }

      // Bound tightening: for each variable, the row minus the best-case
      // activity of the *other* terms bounds coef * x.
      for (const auto& t : row.terms) {
        if (t.coef == 0.0) continue;
        const double vlb = lb[t.var];
        const double vub = ub[t.var];
        const double self_lo = t.coef >= 0.0 ? t.coef * vlb : t.coef * vub;
        const double self_hi = t.coef >= 0.0 ? t.coef * vub : t.coef * vlb;
        const double rest_lo = act.lo - self_lo;
        const double rest_hi = act.hi - self_hi;

        double new_lb = vlb;
        double new_ub = vub;
        // <= : coef*x <= rhs - rest_lo
        if (row.sense != Sense::GreaterEqual && std::isfinite(rest_lo)) {
          const double cap = row.rhs - rest_lo;
          if (t.coef > 0.0) {
            new_ub = std::min(new_ub, cap / t.coef);
          } else {
            new_lb = std::max(new_lb, cap / t.coef);
          }
        }
        // >= : coef*x >= rhs - rest_hi
        if (row.sense != Sense::LessEqual && std::isfinite(rest_hi)) {
          const double floor_v = row.rhs - rest_hi;
          if (t.coef > 0.0) {
            new_lb = std::max(new_lb, floor_v / t.coef);
          } else {
            new_ub = std::min(new_ub, floor_v / t.coef);
          }
        }
        if (model.variable(t.var).type != VarType::Continuous) {
          new_lb = std::ceil(new_lb - options.feas_tol);
          new_ub = std::floor(new_ub + options.feas_tol);
        }
        const bool tighter_lb = new_lb > vlb + options.feas_tol;
        const bool tighter_ub = new_ub < vub - options.feas_tol;
        if (!tighter_lb && !tighter_ub) continue;
        if (new_lb > new_ub + options.feas_tol) {
          result.infeasible = true;
          return result;
        }
        lb[t.var] = std::max(vlb, new_lb);
        ub[t.var] = std::min(vub, std::max(new_ub, new_lb));
        model.set_bounds(t.var, lb[t.var], ub[t.var]);
        ++result.bounds_tightened;
        changed = true;
      }
    }
    if (!changed) break;
  }

  for (std::size_t j = 0; j < nvars; ++j) {
    if (ub[j] - lb[j] <= options.feas_tol) ++result.variables_fixed;
  }
  return result;
}

}  // namespace aspe::opt
