#include "opt/mip.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"
#include "obs/obs.hpp"
#include "opt/presolve.hpp"

namespace aspe::opt {

namespace {

/// Index of the integer variable whose LP value is most fractional;
/// model.num_variables() when the point is integral.
std::size_t most_fractional(const Model& model, const Vec& x) {
  std::size_t best = model.num_variables();
  double best_frac = kIntTol;
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    if (model.variable(j).type == VarType::Continuous) continue;
    const double f = x[j] - std::floor(x[j]);
    const double frac = std::min(f, 1.0 - f);
    if (frac > best_frac) {
      best_frac = frac;
      best = j;
    }
  }
  return best;
}

}  // namespace

MipResult solve_mip(Model model, const MipOptions& options) {
  SimplexSolver solver(model, options.lp);
  return solve_mip(model, solver, options);
}

MipResult solve_mip(Model& model, SimplexSolver& solver,
                    const MipOptions& options) {
  MipResult result;
  Stopwatch watch;
  obs::Span search_span("opt/solve_mip");
  const SolverStats entry_stats = solver.stats();

  // B&B node-event tallies, accumulated locally (the search is serial) and
  // emitted as counters once at exit — near-zero cost per node.
  std::size_t pruned_parent_bound = 0;
  std::size_t pruned_bound = 0;
  std::size_t infeasible_nodes = 0;
  std::size_t incumbents_found = 0;
  std::size_t max_depth = 0;

  // Bound deltas applied to the solver on the way down the tree; rewound on
  // backtrack and fully on exit (the caller keeps a usable solver).
  struct TrailEntry {
    std::size_t var;
    double lb, ub;  // solver bounds before this node's delta
  };
  std::vector<TrailEntry> trail;

  const auto finalize = [&](MipResult& r) {
    while (!trail.empty()) {
      const TrailEntry& t = trail.back();
      solver.set_bounds(t.var, t.lb, t.ub);
      trail.pop_back();
    }
    r.seconds = watch.seconds();
    const SolverStats& s = solver.stats();
    r.lp_warm_solves = s.warm_solves - entry_stats.warm_solves;
    r.lp_cold_solves = s.cold_solves - entry_stats.cold_solves;
    if (obs::enabled()) {
      obs::counter_add("mip.bnb.nodes",
                       static_cast<double>(r.nodes_explored));
      obs::counter_add("mip.bnb.simplex_iterations",
                       static_cast<double>(r.simplex_iterations));
      obs::counter_add("mip.bnb.warm_solves",
                       static_cast<double>(r.lp_warm_solves));
      obs::counter_add("mip.bnb.cold_solves",
                       static_cast<double>(r.lp_cold_solves));
      obs::counter_add("mip.bnb.dual_fallbacks",
                       static_cast<double>(s.dual_fallbacks -
                                           entry_stats.dual_fallbacks));
      obs::counter_add("mip.bnb.pruned_parent_bound",
                       static_cast<double>(pruned_parent_bound));
      obs::counter_add("mip.bnb.pruned_bound",
                       static_cast<double>(pruned_bound));
      obs::counter_add("mip.bnb.infeasible_nodes",
                       static_cast<double>(infeasible_nodes));
      obs::counter_add("mip.bnb.incumbents",
                       static_cast<double>(incumbents_found));
      obs::gauge_set("mip.bnb.max_depth", static_cast<double>(max_depth));
    }
  };

  if (options.use_presolve) {
    const PresolveResult pre = presolve(model);
    if (pre.infeasible) {
      result.status = MipStatus::Infeasible;
      finalize(result);
      return result;
    }
    solver.sync_bounds();
  }

  const std::size_t n = model.num_variables();
  double incumbent_obj = kInfinity;
  bool have_incumbent = false;
  bool search_truncated = false;

  // Depth-first search over bound deltas. Each frame carries ONE bound change
  // relative to its parent; popping a frame rewinds exactly the abandoned
  // suffix of the path (DFS order guarantees the trail prefix below `depth`
  // is the new node's own ancestor path). No O(n) bound reset per node.
  constexpr std::size_t kRoot = static_cast<std::size_t>(-1);
  struct Frame {
    std::size_t var = kRoot;  // branching variable (kRoot for the root node)
    double lb = 0.0, ub = 0.0;
    std::size_t depth = 0;  // trail length before this node's delta
    std::shared_ptr<const BasisState> warm;  // parent's optimal basis
    double parent_bound = -kInfinity;        // parent LP objective
  };

  std::vector<Frame> stack;
  stack.push_back(Frame{});
  // Snapshot the solver's in-memory basis currently corresponds to; when a
  // dive child's warm pointer matches, the restore is skipped entirely.
  std::shared_ptr<const BasisState> live;

  while (!stack.empty()) {
    if (result.nodes_explored >= options.max_nodes) {
      search_truncated = true;
      break;
    }
    if (watch.seconds() > options.time_limit_seconds) {
      search_truncated = true;
      break;
    }
    const Frame frame = std::move(stack.back());
    stack.pop_back();
    ++result.nodes_explored;
    max_depth = std::max(max_depth, frame.depth);

    // Rewind to this node's branch point, then apply its single delta.
    while (trail.size() > frame.depth) {
      const TrailEntry& t = trail.back();
      solver.set_bounds(t.var, t.lb, t.ub);
      trail.pop_back();
    }
    if (frame.var != kRoot) {
      if (frame.lb > frame.ub) continue;  // empty branch interval
      trail.push_back({frame.var, solver.lower_bound(frame.var),
                       solver.upper_bound(frame.var)});
      solver.set_bounds(frame.var, frame.lb, frame.ub);
    }

    // The child LP bound can only be worse than the parent's: prune on the
    // parent objective before paying for the solve.
    if (have_incumbent && frame.parent_bound >= incumbent_obj - 1e-9) {
      ++pruned_parent_bound;
      continue;
    }

    LpResult lp;
    if (options.warm_start) {
      if (frame.warm && live != frame.warm) solver.restore(*frame.warm);
      lp = solver.solve_warm();  // cold when no basis exists yet
    } else {
      lp = solver.solve();
    }
    live.reset();
    result.simplex_iterations += lp.iterations;

    if (lp.status == LpStatus::Infeasible) {
      ++infeasible_nodes;
      continue;
    }
    if (lp.status == LpStatus::IterationLimit) {
      search_truncated = true;
      continue;
    }
    if (lp.status == LpStatus::Unbounded) {
      // Unbounded relaxation at the root of a minimization with integer
      // variables: treat as unbounded problem -> report via exception.
      throw NumericalError("solve_mip: LP relaxation is unbounded");
    }

    // Bound pruning.
    if (have_incumbent && lp.objective >= incumbent_obj - 1e-9) {
      ++pruned_bound;
      continue;
    }

    const std::size_t frac = most_fractional(model, lp.x);
    if (frac == n) {
      // Integer feasible.
      if (!have_incumbent || lp.objective < incumbent_obj) {
        have_incumbent = true;
        ++incumbents_found;
        if (obs::enabled()) obs::instant("mip/incumbent");
        incumbent_obj = lp.objective;
        result.x = lp.x;
        // Snap integer variables exactly.
        for (std::size_t j = 0; j < n; ++j) {
          if (model.variable(j).type != VarType::Continuous) {
            result.x[j] = std::round(result.x[j]);
          }
        }
        result.objective = incumbent_obj;
      }
      if (options.first_feasible) {
        result.status = MipStatus::Feasible;
        finalize(result);
        return result;
      }
      continue;
    }

    // Branch. Push the far child first so the near (nearest-integer) child is
    // explored next -> diving behaviour. Both children share one snapshot of
    // this node's optimal basis; the near child finds it still live in the
    // solver and dives without a restore.
    const double v = lp.x[frac];
    const double floor_v = std::floor(v);
    const double ceil_v = floor_v + 1.0;
    const double eff_lb = solver.lower_bound(frac);
    const double eff_ub = solver.upper_bound(frac);
    std::shared_ptr<const BasisState> snap;
    if (options.warm_start) {
      snap = std::make_shared<const BasisState>(solver.basis());
      live = snap;
    }
    const std::size_t child_depth = trail.size();
    Frame down{frac, eff_lb, floor_v, child_depth, snap, lp.objective};
    Frame up{frac, ceil_v, eff_ub, child_depth, std::move(snap), lp.objective};

    const bool near_is_up = (v - floor_v) >= 0.5;
    if (near_is_up) {
      stack.push_back(std::move(down));
      stack.push_back(std::move(up));
    } else {
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    }
  }

  finalize(result);
  if (have_incumbent) {
    result.status = search_truncated ? MipStatus::Feasible : MipStatus::Optimal;
  } else if (search_truncated) {
    result.status = watch.seconds() > options.time_limit_seconds
                        ? MipStatus::TimeLimit
                        : MipStatus::NodeLimit;
  } else {
    result.status = MipStatus::Infeasible;
  }
  if (have_incumbent) result.objective = incumbent_obj;
  return result;
}

}  // namespace aspe::opt
