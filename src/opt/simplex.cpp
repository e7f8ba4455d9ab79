#include "opt/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"

namespace aspe::opt {

using linalg::ConstVecView;
using linalg::Matrix;
using linalg::Op;
using linalg::VecView;

namespace {

/// Emits the growth of a cumulative stats field as an obs counter when the
/// scope ends — one counter_add per optimize pass instead of one per pivot.
class StatDeltaCounter {
 public:
  StatDeltaCounter(const char* name, const std::size_t& current)
      : name_(name), current_(current), entry_(current) {}
  ~StatDeltaCounter() {
    if (current_ != entry_) {
      obs::counter_add(name_, static_cast<double>(current_ - entry_));
    }
  }
  StatDeltaCounter(const StatDeltaCounter&) = delete;
  StatDeltaCounter& operator=(const StatDeltaCounter&) = delete;

 private:
  const char* name_;
  const std::size_t& current_;
  std::size_t entry_;
};

}  // namespace

// Variable layout: [0, n) structural, [n, n+s) slacks (one per inequality
// row), [n+s, n+s+m) artificials (one per row).

SimplexSolver::SimplexSolver(const Model& model, const SimplexOptions& opt)
    : model_(model), opt_(opt) {
  build();
}

void SimplexSolver::build() {
  n_ = model_.num_variables();
  m_ = model_.num_constraints();
  require(n_ > 0, "SimplexSolver: model has no variables");
  require(m_ > 0, "SimplexSolver: model has no constraints");

  // Structural columns, sparse with ascending rows. Duplicate terms of a
  // row are summed in term order and exact-zero sums dropped, so the stored
  // values are exactly the nonzeros of the dense column they stand for.
  std::vector<std::vector<std::pair<std::size_t, double>>> cols(n_);
  rhs_.resize(m_);
  slack_row_.clear();
  slack_sign_.clear();
  for (std::size_t i = 0; i < m_; ++i) {
    const Constraint& c = model_.constraint(i);
    for (const auto& t : c.terms) {
      auto& col = cols[t.var];
      if (!col.empty() && col.back().first == i) {
        col.back().second += t.coef;
      } else {
        col.emplace_back(i, t.coef);
      }
    }
    rhs_[i] = c.rhs;
    if (c.sense == Sense::LessEqual) {
      slack_row_.push_back(i);
      slack_sign_.push_back(1.0);
    } else if (c.sense == Sense::GreaterEqual) {
      slack_row_.push_back(i);
      slack_sign_.push_back(-1.0);
    }
  }
  col_start_.assign(1, 0);
  col_row_.clear();
  col_val_.clear();
  for (const auto& col : cols) {
    for (const auto& [row, v] : col) {
      if (v == 0.0) continue;
      col_row_.push_back(row);
      col_val_.push_back(v);
    }
    col_start_.push_back(col_row_.size());
  }
  slack_begin_ = n_;
  art_begin_ = n_ + slack_row_.size();
  total_ = art_begin_ + m_;

  lb_.assign(total_, 0.0);
  ub_.assign(total_, kInfinity);
  for (std::size_t j = 0; j < n_; ++j) {
    lb_[j] = model_.variable(j).lb;
    ub_[j] = model_.variable(j).ub;
  }
  synced_bound_revision_ = model_.bound_revision();

  rhs_scale_ = 1.0;
  for (auto b : rhs_) rhs_scale_ = std::max(rhs_scale_, std::abs(b));

  art_sign_.assign(m_, 1.0);
  basis_.resize(m_);
  basis_pos_.assign(total_, npos);
  xb_.resize(m_);
  cb_.resize(m_);
  d_.resize(m_);
  cost2_.assign(total_, 0.0);
  weights_.assign(total_, 1.0);
  status_.assign(total_, VarStatus::AtLower);
  binv_ = Matrix::identity(m_);
}

void SimplexSolver::set_bounds(std::size_t var, double lb, double ub) {
  require(var < n_, "SimplexSolver::set_bounds: unknown variable");
  require(lb <= ub, "SimplexSolver::set_bounds: lb > ub");
  require(std::isfinite(lb), "SimplexSolver::set_bounds: lb must be finite");
  lb_[var] = lb;
  ub_[var] = ub;
  // A nonbasic variable must sit at a finite bound.
  if (status_[var] == VarStatus::AtUpper && ub == kInfinity) {
    status_[var] = VarStatus::AtLower;
  }
}

void SimplexSolver::sync_bounds() {
  if (model_.bound_revision() == synced_bound_revision_) return;
  for (std::size_t j = 0; j < n_; ++j) {
    lb_[j] = model_.variable(j).lb;
    ub_[j] = model_.variable(j).ub;
    if (status_[j] == VarStatus::AtUpper && ub_[j] == kInfinity) {
      status_[j] = VarStatus::AtLower;
    }
  }
  synced_bound_revision_ = model_.bound_revision();
}

double SimplexSolver::lower_bound(std::size_t var) const {
  require(var < n_, "SimplexSolver::lower_bound: unknown variable");
  return lb_[var];
}

double SimplexSolver::upper_bound(std::size_t var) const {
  require(var < n_, "SimplexSolver::upper_bound: unknown variable");
  return ub_[var];
}

void SimplexSolver::reset_to_artificial_basis() {
  // Structurals and slacks nonbasic at their lower bound; artificials absorb
  // the residual and form the initial basis.
  status_.assign(total_, VarStatus::AtLower);
  for (std::size_t a = 0; a < m_; ++a) ub_[art_begin_ + a] = kInfinity;

  Vec residual = rhs_;
  for (std::size_t j = 0; j < n_; ++j) {
    if (lb_[j] == 0.0) continue;
    add_structural(-lb_[j], j, residual);
  }
  basis_pos_.assign(total_, npos);
  for (std::size_t i = 0; i < m_; ++i) {
    art_sign_[i] = residual[i] >= 0.0 ? 1.0 : -1.0;
    basis_[i] = art_begin_ + i;
    basis_pos_[art_begin_ + i] = i;
    status_[art_begin_ + i] = VarStatus::Basic;
    xb_[i] = std::abs(residual[i]);
  }
  // With the sign-adjusted artificial basis, B = diag(art_sign_), so
  // B^{-1} = diag(art_sign_).
  binv_ = Matrix::identity(m_);
  for (std::size_t i = 0; i < m_; ++i) binv_(i, i) = art_sign_[i];
  binv_valid_ = true;
  pivots_since_refactor_ = 0;
}

void SimplexSolver::pin_artificials() {
  for (std::size_t a = 0; a < m_; ++a) {
    ub_[art_begin_ + a] = 0.0;
    // A nonbasic artificial must sit at a bound; both bounds are now 0.
    if (status_[art_begin_ + a] == VarStatus::AtUpper) {
      status_[art_begin_ + a] = VarStatus::AtLower;
    }
  }
}

void SimplexSolver::rebuild_phase2_cost() {
  std::fill(cost2_.begin(), cost2_.end(), 0.0);
  for (const auto& t : model_.objective()) cost2_[t.var] += t.coef;
}

// Column j of the full constraint matrix, read on demand: structural
// columns from the sparse store in ascending row order, slack/artificial
// columns as signed singletons.
double SimplexSolver::col_dot(const Vec& y, std::size_t j) const {
  if (j < n_) return structural_dot(y.data(), j);
  if (j < art_begin_) {
    const std::size_t k = j - slack_begin_;
    return slack_sign_[k] * y[slack_row_[k]];
  }
  const std::size_t k = j - art_begin_;
  return art_sign_[k] * y[k];
}

double SimplexSolver::structural_dot(const double* y, std::size_t j) const {
  double s = 0.0;
  for (std::size_t p = col_start_[j]; p < col_start_[j + 1]; ++p) {
    s += y[col_row_[p]] * col_val_[p];
  }
  return s;
}

void SimplexSolver::add_structural(double alpha, std::size_t j,
                                   Vec& v) const {
  for (std::size_t p = col_start_[j]; p < col_start_[j + 1]; ++p) {
    v[col_row_[p]] += alpha * col_val_[p];
  }
}

// d = B^{-1} A_j, into the solver's scratch d_.
const Vec& SimplexSolver::compute_d(std::size_t j) {
  Vec& d = d_;
  if (j < n_) {
    for (std::size_t i = 0; i < m_; ++i) {
      d[i] = structural_dot(binv_.row_ptr(i), j);
    }
  } else if (j < art_begin_) {
    const std::size_t k = j - slack_begin_;
    const std::size_t row = slack_row_[k];
    for (std::size_t i = 0; i < m_; ++i) {
      d[i] = slack_sign_[k] * binv_(i, row);
    }
  } else {
    const std::size_t k = j - art_begin_;
    for (std::size_t i = 0; i < m_; ++i) d[i] = art_sign_[k] * binv_(i, k);
  }
  return d;
}

double SimplexSolver::value(std::size_t j) const {
  switch (status_[j]) {
    case VarStatus::AtLower:
      return lb_[j];
    case VarStatus::AtUpper:
      return ub_[j];
    case VarStatus::Basic:
      return xb_[basis_pos_[j]];
  }
  return 0.0;
}

void SimplexSolver::recompute_xb() {
  // x_B = B^{-1} (b - sum_{nonbasic j} A_j x_j).
  Vec residual = rhs_;
  for (std::size_t j = 0; j < total_; ++j) {
    if (status_[j] == VarStatus::Basic) continue;
    const double v = status_[j] == VarStatus::AtUpper ? ub_[j] : lb_[j];
    if (v == 0.0) continue;
    if (j < n_) {
      add_structural(-v, j, residual);
    } else if (j < art_begin_) {
      const std::size_t k = j - slack_begin_;
      residual[slack_row_[k]] -= v * slack_sign_[k];
    } else {
      residual[j - art_begin_] -= v * art_sign_[j - art_begin_];
    }
  }
  linalg::gemv(1.0, binv_.cview(), Op::None, ConstVecView(residual), 0.0,
               VecView(xb_));
}

bool SimplexSolver::refactorize() {
  // Rebuild B^{-1} densely from the basis columns (LU with partial
  // pivoting), discarding the drift accumulated by the eta-style updates.
  obs::Span span("simplex/refactorize");
  Matrix b(m_, m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t j = basis_[i];
    if (j < n_) {
      for (std::size_t p = col_start_[j]; p < col_start_[j + 1]; ++p) {
        b(col_row_[p], i) = col_val_[p];
      }
    } else if (j < art_begin_) {
      const std::size_t k = j - slack_begin_;
      b(slack_row_[k], i) = slack_sign_[k];
    } else {
      const std::size_t k = j - art_begin_;
      b(k, i) = art_sign_[k];
    }
  }
  linalg::LuDecomposition lu(std::move(b));
  if (lu.is_singular()) return false;
  binv_ = lu.inverse();
  binv_valid_ = true;
  pivots_since_refactor_ = 0;
  ++stats_.refactorizations;
  obs::counter_add("simplex.refactorizations", 1.0);
  return true;
}

// Gauss-Jordan update of B^{-1} with pivot d[r], eta-style on row views:
// scale the pivot row, then subtract its multiple from the other rows.
void SimplexSolver::pivot_update(std::size_t r, const Vec& d) {
  const double pivot = d[r];
  const VecView br = binv_.row_view(r);
  linalg::scal(1.0 / pivot, br);
  for (std::size_t i = 0; i < m_; ++i) {
    if (i == r || d[i] == 0.0) continue;
    linalg::axpy(-d[i], br, binv_.row_view(i));
  }
}

// Clamp small drift of basic values onto their bounds.
void SimplexSolver::clamp_basic_drift() {
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t bj = basis_[i];
    if (xb_[i] < lb_[bj] && xb_[i] > lb_[bj] - kFeasTol) {
      xb_[i] = lb_[bj];
    }
    if (ub_[bj] != kInfinity && xb_[i] > ub_[bj] &&
        xb_[i] < ub_[bj] + kFeasTol) {
      xb_[i] = ub_[bj];
    }
  }
}

void SimplexSolver::maybe_refactorize() {
  if (++pivots_since_refactor_ < kRefactorInterval) return;
  if (refactorize()) recompute_xb();
}

LpStatus SimplexSolver::optimize(const Vec& cost,
                                 std::size_t& iteration_counter) {
  StatDeltaCounter pivots("simplex.primal_iterations",
                          stats_.primal_iterations);
  const std::size_t max_iters = 200 * (m_ + total_) + 2000;
  const std::size_t bland_after = opt_.bland_threshold > 0
                                      ? opt_.bland_threshold
                                      : 20 * (m_ + total_) + 500;
  std::size_t local_iters = 0;
  weights_.assign(total_, 1.0);  // fresh Devex reference framework
  Vec y(m_), rho(m_);

  while (true) {
    if (local_iters++ > max_iters) return LpStatus::IterationLimit;
    ++iteration_counter;
    ++stats_.primal_iterations;
    const bool bland = local_iters > bland_after;

    // y^T = c_B^T B^{-1}, i.e. y = (B^{-1})^T c_B via the transposed gemv.
    for (std::size_t i = 0; i < m_; ++i) cb_[i] = cost[basis_[i]];
    linalg::gemv(1.0, binv_.cview(), Op::Transpose, ConstVecView(cb_), 0.0,
                 VecView(y));

    // Devex pricing: maximize rc^2 / w over the eligible columns; the
    // reference weights approximate steepest-edge norms at rank-1 update
    // cost. Ties break toward the smaller index (deterministic).
    std::size_t entering = total_;
    double best_score = 0.0;
    int enter_dir = 0;
    for (std::size_t j = 0; j < total_; ++j) {
      const VarStatus st = status_[j];
      if (st == VarStatus::Basic) continue;
      if (lb_[j] == ub_[j]) continue;  // fixed variable can never improve
      const double rc = cost[j] - col_dot(y, j);
      double viol = 0.0;
      int dir = 0;
      if (st == VarStatus::AtLower && rc < -kOptTol) {
        viol = -rc;
        dir = +1;
      } else if (st == VarStatus::AtUpper && rc > kOptTol) {
        viol = rc;
        dir = -1;
      } else {
        continue;
      }
      if (bland) {  // first eligible index
        entering = j;
        enter_dir = dir;
        break;
      }
      const double score = viol * viol / weights_[j];
      if (score > best_score) {
        best_score = score;
        entering = j;
        enter_dir = dir;
      }
    }
    if (entering == total_) return LpStatus::Optimal;

    const Vec& d = compute_d(entering);

    // Ratio test. Moving the entering variable by t in direction enter_dir
    // changes basic values by -t * enter_dir * d. A row tying the current
    // limit (including the bound-flip distance) is preferred when its pivot
    // magnitude is larger — pivoting on the biggest |d_i| among the blocking
    // rows is cheaper in fill and error than a near-degenerate follow-up.
    double t_limit = ub_[entering] - lb_[entering];  // bound-flip distance
    std::ptrdiff_t leaving_row = -1;                 // -1 => bound flip
    bool leaving_to_upper = false;
    double best_pivot_mag = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const double g = enter_dir * d[i];
      const std::size_t bj = basis_[i];
      double t = kInfinity;
      bool to_upper = false;
      if (g > kOptTol) {  // basic variable decreases toward its lb
        t = (xb_[i] - lb_[bj]) / g;
      } else if (g < -kOptTol) {  // increases toward its ub
        if (ub_[bj] == kInfinity) continue;
        t = (ub_[bj] - xb_[i]) / (-g);
        to_upper = true;
      } else {
        continue;
      }
      t = std::max(t, 0.0);
      const double mag = std::abs(g);
      const bool better =
          t < t_limit - 1e-12 || (t < t_limit + 1e-12 && mag > best_pivot_mag);
      if (better) {
        t_limit = std::min(t, t_limit);
        leaving_row = static_cast<std::ptrdiff_t>(i);
        leaving_to_upper = to_upper;
        best_pivot_mag = mag;
      }
    }

    if (t_limit == kInfinity) return LpStatus::Unbounded;

    if (leaving_row < 0) {
      // Bound flip: the entering variable runs to its opposite bound. No
      // basis change, so the Devex weights are untouched.
      linalg::axpy(-(t_limit * enter_dir), ConstVecView(d), VecView(xb_));
      status_[entering] =
          enter_dir > 0 ? VarStatus::AtUpper : VarStatus::AtLower;
      continue;
    }

    // Basis change.
    const auto r = static_cast<std::size_t>(leaving_row);
    const std::size_t leaving = basis_[r];
    // The Devex update needs the pivot row of B^{-1} before the pivot.
    if (!bland) {
      for (std::size_t i = 0; i < m_; ++i) rho[i] = binv_(r, i);
    }
    linalg::axpy(-(t_limit * enter_dir), ConstVecView(d), VecView(xb_));
    const double entering_value =
        (enter_dir > 0 ? lb_[entering] : ub_[entering]) +
        enter_dir * t_limit;

    pivot_update(r, d);
    basis_[r] = entering;
    basis_pos_[entering] = r;
    basis_pos_[leaving] = npos;
    xb_[r] = entering_value;
    status_[entering] = VarStatus::Basic;
    status_[leaving] =
        leaving_to_upper ? VarStatus::AtUpper : VarStatus::AtLower;
    clamp_basic_drift();

    if (!bland) {
      // Devex reference-weight update (Forrest-Goldfarb): for nonbasic j,
      // w_j <- max(w_j, (alpha_rj / alpha_rq)^2 w_q); the leaving variable
      // re-enters the frame with w = max(w_q / alpha_rq^2, 1).
      const double aq = d[r];
      const double wq = weights_[entering];
      double wmax = 1.0;
      for (std::size_t j = 0; j < total_; ++j) {
        if (status_[j] == VarStatus::Basic || j == leaving) continue;
        if (lb_[j] == ub_[j]) continue;
        const double alpha = col_dot(rho, j);
        if (alpha == 0.0) continue;
        const double cand = (alpha / aq) * (alpha / aq) * wq;
        if (cand > weights_[j]) weights_[j] = cand;
        wmax = std::max(wmax, weights_[j]);
      }
      weights_[leaving] = std::max(wq / (aq * aq), 1.0);
      wmax = std::max(wmax, weights_[leaving]);
      // Degraded frame: restart the reference framework.
      if (wmax > 1e9) weights_.assign(total_, 1.0);
    }
    maybe_refactorize();
  }
}

LpStatus SimplexSolver::dual_optimize(std::size_t& iteration_counter) {
  StatDeltaCounter pivots("simplex.dual_iterations", stats_.dual_iterations);
  const std::size_t max_iters = 40 * m_ + 400;
  const std::size_t bland_after =
      opt_.bland_threshold > 0 ? opt_.bland_threshold : 10 * m_ + 100;
  const double feas = kFeasTol * std::max(1.0, rhs_scale_);
  std::size_t local_iters = 0;
  Vec y(m_), rho(m_);

  while (true) {
    if (local_iters++ > max_iters) return LpStatus::IterationLimit;
    ++iteration_counter;
    ++stats_.dual_iterations;
    const bool bland = local_iters > bland_after;

    // Leaving row: the basic variable with the worst bound violation
    // (Bland mode: the first violated row).
    std::size_t r = m_;
    double worst = feas;
    bool below = false;
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t bj = basis_[i];
      const double under = lb_[bj] - xb_[i];
      const double over =
          ub_[bj] == kInfinity ? -kInfinity : xb_[i] - ub_[bj];
      const double v = std::max(under, over);
      if (v > worst) {
        worst = v;
        r = i;
        below = under >= over;
        if (bland) break;
      }
    }
    if (r == m_) return LpStatus::Optimal;  // primal feasible + dual feasible

    // Pivot row alpha_j = (e_r^T B^{-1}) A_j, and y for the reduced costs.
    for (std::size_t i = 0; i < m_; ++i) rho[i] = binv_(r, i);
    for (std::size_t i = 0; i < m_; ++i) cb_[i] = cost2_[basis_[i]];
    linalg::gemv(1.0, binv_.cview(), Op::Transpose, ConstVecView(cb_), 0.0,
                 VecView(y));

    // Dual ratio test: among the columns that can push xb_[r] toward its
    // violated bound, pick the minimal |rc| / |alpha| (preserves dual
    // feasibility); ties break toward the larger |alpha|, then the smaller
    // index. In Bland mode the smallest min-ratio index wins outright.
    std::size_t entering = total_;
    double best_ratio = kInfinity;
    double best_mag = 0.0;
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == VarStatus::Basic) continue;
      if (lb_[j] == ub_[j]) continue;
      const double alpha = col_dot(rho, j);
      if (std::abs(alpha) <= 1e-9) continue;
      const int dir = status_[j] == VarStatus::AtLower ? +1 : -1;
      // Moving j by t >= 0 in direction dir changes xb_[r] by -t*dir*alpha.
      const double push = -dir * alpha;
      if (below ? push <= 0.0 : push >= 0.0) continue;
      const double rc = cost2_[j] - col_dot(y, j);
      const double ratio =
          std::max(dir > 0 ? rc : -rc, 0.0) / std::abs(alpha);
      const bool better =
          bland ? ratio < best_ratio - 1e-12
                : ratio < best_ratio - 1e-12 ||
                      (ratio < best_ratio + 1e-12 &&
                       std::abs(alpha) > best_mag);
      if (better) {
        best_ratio = std::min(ratio, best_ratio);
        best_mag = std::abs(alpha);
        entering = j;
      }
    }
    if (entering == total_) {
      // Dual unbounded: no column can repair the violated row.
      return LpStatus::Infeasible;
    }

    const Vec& d = compute_d(entering);
    const double pivot = d[r];
    if (std::abs(pivot) < 1e-11) {
      // rho and B^{-1} A_j disagree numerically: refactorize and retry; a
      // persistent disagreement runs into the iteration limit.
      if (!refactorize()) return LpStatus::IterationLimit;
      recompute_xb();
      continue;
    }

    const int dir = status_[entering] == VarStatus::AtLower ? +1 : -1;
    const std::size_t leaving = basis_[r];
    const double target = below ? lb_[leaving] : ub_[leaving];
    const double t = std::max((xb_[r] - target) / (dir * pivot), 0.0);

    linalg::axpy(-(t * dir), ConstVecView(d), VecView(xb_));
    const double entering_value =
        (dir > 0 ? lb_[entering] : ub_[entering]) + dir * t;

    pivot_update(r, d);
    basis_[r] = entering;
    basis_pos_[entering] = r;
    basis_pos_[leaving] = npos;
    xb_[r] = entering_value;
    status_[entering] = VarStatus::Basic;
    status_[leaving] = below ? VarStatus::AtLower : VarStatus::AtUpper;
    clamp_basic_drift();
    maybe_refactorize();
  }
}

LpResult SimplexSolver::extract_result(LpStatus status,
                                       std::size_t iterations) const {
  LpResult result;
  result.status = status;
  result.iterations = iterations;
  if (status != LpStatus::Optimal) return result;
  result.x.resize(n_);
  for (std::size_t j = 0; j < n_; ++j) result.x[j] = value(j);
  result.objective = model_.objective_value(result.x);
  return result;
}

LpResult SimplexSolver::cold_fallback(std::size_t iterations_so_far) {
  LpResult result = solve();
  result.iterations += iterations_so_far;
  return result;
}

LpResult SimplexSolver::solve() {
  obs::Span span("simplex/cold_solve");
  obs::counter_add("simplex.cold_solves", 1.0);
  ++stats_.cold_solves;
  have_basis_ = false;
  std::size_t iterations = 0;
  reset_to_artificial_basis();

  // ---- Phase 1: minimize the sum of artificials. ----
  Vec phase1_cost(total_, 0.0);
  for (std::size_t a = 0; a < m_; ++a) phase1_cost[art_begin_ + a] = 1.0;
  const LpStatus s1 = optimize(phase1_cost, iterations);
  if (s1 == LpStatus::IterationLimit) {
    return extract_result(LpStatus::IterationLimit, iterations);
  }
  double art_sum = 0.0;
  for (std::size_t a = 0; a < m_; ++a) art_sum += value(art_begin_ + a);
  if (art_sum > kFeasTol * std::max(1.0, rhs_scale_)) {
    return extract_result(LpStatus::Infeasible, iterations);
  }

  // ---- Phase 2: the real objective, artificials pinned to zero. ----
  pin_artificials();
  rebuild_phase2_cost();
  const LpStatus s2 = optimize(cost2_, iterations);
  if (s2 == LpStatus::Optimal) have_basis_ = true;
  return extract_result(s2, iterations);
}

LpResult SimplexSolver::solve_warm() {
  if (!have_basis_) return solve();
  obs::Span span("simplex/warm_solve");
  obs::counter_add("simplex.warm_solves", 1.0);
  ++stats_.warm_solves;
  std::size_t iterations = 0;

  if (!binv_valid_ && !refactorize()) {
    ++stats_.dual_fallbacks;
    obs::counter_add("simplex.dual_fallbacks", 1.0);
    obs::instant("simplex/dual_fallback");
    return cold_fallback(iterations);
  }
  rebuild_phase2_cost();
  recompute_xb();

  // The previous optimal basis stays dual feasible under any bound change
  // (reduced costs do not depend on bounds), so the dual simplex restores
  // primal feasibility directly — no phase 1.
  const LpStatus dual = dual_optimize(iterations);
  if (dual == LpStatus::Infeasible) {
    // The basis itself is still dual feasible and reusable.
    return extract_result(LpStatus::Infeasible, iterations);
  }
  if (dual == LpStatus::IterationLimit) {
    ++stats_.dual_fallbacks;
    obs::counter_add("simplex.dual_fallbacks", 1.0);
    obs::instant("simplex/dual_fallback");
    return cold_fallback(iterations);
  }

  // Primal polish: normally proves optimality in one pricing pass; it only
  // pivots when the objective changed or tolerance drift left a violated
  // reduced cost.
  const LpStatus s2 = optimize(cost2_, iterations);
  if (s2 == LpStatus::Unbounded) {
    have_basis_ = false;
    return extract_result(LpStatus::Unbounded, iterations);
  }
  if (s2 != LpStatus::Optimal) {
    ++stats_.dual_fallbacks;
    obs::counter_add("simplex.dual_fallbacks", 1.0);
    obs::instant("simplex/dual_fallback");
    return cold_fallback(iterations);
  }
  return extract_result(LpStatus::Optimal, iterations);
}

BasisState SimplexSolver::basis() const {
  require(have_basis_, "SimplexSolver::basis: no basis to snapshot");
  BasisState state;
  state.basis = basis_;
  state.status = status_;
  state.art_sign = art_sign_;
  return state;
}

void SimplexSolver::restore(const BasisState& state) {
  require(state.basis.size() == m_ && state.status.size() == total_ &&
              state.art_sign.size() == m_,
          "SimplexSolver::restore: snapshot shape mismatch");
  basis_ = state.basis;
  status_ = state.status;
  art_sign_ = state.art_sign;
  basis_pos_.assign(total_, npos);
  for (std::size_t i = 0; i < m_; ++i) basis_pos_[basis_[i]] = i;
  // Nonbasic statuses may predate the current bounds.
  for (std::size_t j = 0; j < n_; ++j) {
    if (status_[j] == VarStatus::AtUpper && ub_[j] == kInfinity) {
      status_[j] = VarStatus::AtLower;
    }
  }
  have_basis_ = true;
  binv_valid_ = false;  // refactorized lazily by the next solve_warm
}

void SimplexSolver::warm_attach(const BasisState& state) {
  restore(state);
  pin_artificials();
}

LpResult solve_lp(const Model& model, const SimplexOptions& options) {
  require(model.num_variables() > 0, "solve_lp: model has no variables");
  require(model.num_constraints() > 0, "solve_lp: model has no constraints");
  SimplexSolver solver(model, options);
  return solver.solve();
}

}  // namespace aspe::opt
