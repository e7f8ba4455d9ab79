#include "core/mip_attack.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <tuple>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/obs.hpp"
#include "opt/simplex.hpp"
#include "par/parallel.hpp"

namespace aspe::core {

using opt::LinExpr;
using opt::Model;
using opt::Sense;
using scheme::cipher_score;

namespace {

// Bounds making the continuous variables finite for the LP relaxation;
// rhat = 1/r and that = t/r with r in [0.5, 2], t in [0.1, 1] under the
// reference trapdoor generator, so these are generous.
constexpr double kRhatMin = 1e-4;
constexpr double kRhatMax = 1e4;
constexpr double kThatMin = 1e-6;
constexpr double kThatMax = 1e4;

}  // namespace

Model build_mip_attack_model(
    const std::vector<sse::KnownBinaryPair>& known_pairs,
    const scheme::CipherPair& cipher_trapdoor, double mu, double sigma,
    const MipAttackOptions& options) {
  require(!known_pairs.empty(), "MIP attack: no known pairs");
  require(sigma > 0.0, "MIP attack: sigma must be positive");
  const std::size_t d = known_pairs[0].record.size();

  Model model;
  const std::size_t rhat = model.add_variable(kRhatMin, kRhatMax,
                                              opt::VarType::Continuous, "rhat");
  const std::size_t that = model.add_variable(kThatMin, kThatMax,
                                              opt::VarType::Continuous, "that");
  std::vector<std::size_t> q(d);
  for (std::size_t k = 0; k < d; ++k) q[k] = model.add_binary();

  // Constraint 4: the query has at least one keyword.
  LinExpr at_least_one;
  for (std::size_t k = 0; k < d; ++k) at_least_one.push_back({q[k], 1.0});
  model.add_constraint(at_least_one, Sense::GreaterEqual, 1.0);

  // Constraint 5, one band per known pair:
  //   mu - l sigma <= rhat*c_i - that - P_i.Q <= mu + l sigma
  const double lo = mu - options.l * sigma;
  const double hi = mu + options.l * sigma;
  for (const auto& pair : known_pairs) {
    require(pair.record.size() == d, "MIP attack: inconsistent record length");
    const double c = cipher_score(pair.cipher, cipher_trapdoor);
    LinExpr expr;
    expr.push_back({rhat, c});
    expr.push_back({that, -1.0});
    for (std::size_t k = 0; k < d; ++k) {
      if (pair.record[k] != 0) expr.push_back({q[k], -1.0});
    }
    model.add_constraint(expr, Sense::GreaterEqual, lo);
    model.add_constraint(std::move(expr), Sense::LessEqual, hi);
  }
  return model;
}

std::uint64_t mip_model_digest(const Model& model) {
  // FNV-1a over every numeric fact of the model. Full-content keying is
  // deliberate: two same-shaped models with different coefficients can land
  // on different optimal vertices under the attack's zero objective, so a
  // shape-only key would let a warm basis change the answer.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_double = [&](double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    mix(bits);
  };
  mix(model.num_variables());
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    const opt::Variable& v = model.variable(j);
    mix(static_cast<std::uint64_t>(v.type));
    mix_double(v.lb);
    mix_double(v.ub);
  }
  mix(model.num_constraints());
  for (std::size_t i = 0; i < model.num_constraints(); ++i) {
    const opt::Constraint& c = model.constraint(i);
    mix(static_cast<std::uint64_t>(c.sense));
    mix_double(c.rhs);
    mix(c.terms.size());
    for (const opt::Term& t : c.terms) {
      mix(t.var);
      mix_double(t.coef);
    }
  }
  mix(model.objective().size());
  for (const opt::Term& t : model.objective()) {
    mix(t.var);
    mix_double(t.coef);
  }
  return h;
}

namespace {

/// Result of fitting the two continuous variables for a *fixed* binary Q.
struct RtFit {
  bool feasible = false;
  double rhat = 0.0;
  double that = 0.0;
  /// max(0, -g(rhat*)): how far the best (rhat, that) is from satisfying all
  /// bands; 0 exactly when feasible.
  double violation = 0.0;
};

/// With Q fixed, constraint i pins  that in
/// [rhat*c_i - a_i - (mu + l sigma), rhat*c_i - a_i - (mu - l sigma)].
/// g(rhat) = min_i hi_i - max_i lo_i (clipped by the that bounds) is concave
/// piecewise-linear in rhat; maximize it by ternary search.
RtFit fit_rt(const Vec& c, const Vec& a, double mu, double lsigma) {
  const auto gap = [&](double rhat, double* mid) {
    double hi = kThatMax;
    double lo = kThatMin;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const double center = rhat * c[i] - a[i] - mu;
      hi = std::min(hi, center + lsigma);
      lo = std::max(lo, center - lsigma);
    }
    if (mid != nullptr) *mid = 0.5 * (lo + hi);
    return hi - lo;
  };
  double lo = kRhatMin;
  double hi = kRhatMax;
  for (int it = 0; it < 200; ++it) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (gap(m1, nullptr) < gap(m2, nullptr)) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  RtFit fit;
  const double rhat = 0.5 * (lo + hi);
  double mid = 0.0;
  const double g = gap(rhat, &mid);
  fit.rhat = rhat;
  fit.that = std::clamp(mid, kThatMin, kThatMax);
  fit.feasible = g >= 0.0 && fit.that > 0.0;
  fit.violation = std::max(0.0, -g);
  return fit;
}

/// Choose a chunk grain so each chunk carries enough work to amortize the
/// dispatch cost. Depends only on the per-item work estimate, never on the
/// thread count, so chunk boundaries (and results) stay deterministic.
std::size_t grain_for(std::size_t work_per_item) {
  constexpr std::size_t kGrainWork = std::size_t{1} << 14;
  return std::max<std::size_t>(
      1, kGrainWork / std::max<std::size_t>(work_per_item, 1));
}

/// Root-LP rounding + exact (rhat, that) refit + greedy bit-flip repair.
/// Returns a feasible point when it finds one. Candidate evaluations fan out
/// over `threads`; every selection scan stays in ascending keyword order, so
/// the result is bit-identical to the serial implementation (all candidate
/// inputs are small-integer vectors — exact in doubles under any grouping).
std::optional<MipAttackResult> primal_heuristic(
    const std::vector<sse::KnownBinaryPair>& known_pairs, const Vec& c,
    double mu, double sigma, const MipAttackOptions& options,
    const Model& model, std::optional<opt::SimplexSolver>& solver,
    std::size_t threads, std::size_t& fit_probes, MipWarmState& warm) {
  const std::size_t d = known_pairs[0].record.size();
  const std::size_t m = known_pairs.size();
  const double lsigma = options.l * sigma;

  // a +/- delta on the rows whose record contains keyword k — the O(m)
  // incremental form of inner_products after flipping bit k.
  const auto add_column = [&](Vec& a, std::size_t k, double delta) {
    for (std::size_t i = 0; i < m; ++i) {
      if (known_pairs[i].record[k] != 0) a[i] += delta;
    }
  };

  const bool use_lp =
      options.root_ordering == RootOrdering::LpRelaxation ||
      (options.root_ordering == RootOrdering::Auto && m <= 300);

  Vec relaxed_q(d, 0.0);
  if (use_lp) {
    obs::Span span("mip/root_relaxation");
    // The solver outlives the heuristic: when rounding/repair fails, branch
    // and bound reuses both the built tableau and the root-LP basis.
    if (!solver.has_value()) solver.emplace(model, options.solver.lp);
    opt::LpResult root;
    if (warm.has_root_basis) {
      solver->warm_attach(warm.root_basis);
      root = solver->solve_warm();
    } else {
      root = solver->solve();
      if (root.status == opt::LpStatus::Optimal) {
        // Canonicalize the cold solve: export the basis, restore it and
        // re-solve warm. A restore refactorizes B^{-1}, which can differ
        // from the cold solve's incrementally-updated inverse by ulps — so
        // the point every run uses is the refactorized one, whether the
        // basis came from this run or an earlier job's.
        warm.root_basis = solver->basis();
        solver->restore(warm.root_basis);
        root = solver->solve_warm();
        warm.has_root_basis = root.status == opt::LpStatus::Optimal;
      }
    }
    if (root.status == opt::LpStatus::Infeasible) return std::nullopt;
    if (root.status == opt::LpStatus::Optimal) {
      for (std::size_t k = 0; k < d; ++k) relaxed_q[k] = root.x[2 + k];
    }
  } else {
    obs::Span span("mip/correlation_ordering");
    // Correlation ordering: corr(P_.k , c) per keyword, shifted into [0, 1]
    // so the grow phase's LP-support preference still works.
    double cbar = 0.0;
    for (std::size_t i = 0; i < m; ++i) cbar += c[i];
    cbar /= static_cast<double>(m);
    double cvar = 0.0;
    for (std::size_t i = 0; i < m; ++i) cvar += (c[i] - cbar) * (c[i] - cbar);
    // Each keyword's correlation writes one disjoint slot of relaxed_q.
    par::parallel_for(
        0, d, grain_for(3 * m),
        [&](std::size_t k) {
          double pbar = 0.0;
          for (std::size_t i = 0; i < m; ++i) pbar += known_pairs[i].record[k];
          pbar /= static_cast<double>(m);
          double cov = 0.0, pvar = 0.0;
          for (std::size_t i = 0; i < m; ++i) {
            const double pk = known_pairs[i].record[k] - pbar;
            cov += pk * (c[i] - cbar);
            pvar += pk * pk;
          }
          const double denom = std::sqrt(std::max(pvar * cvar, 1e-30));
          relaxed_q[k] = 0.5 + 0.5 * (cov / denom);  // corr in [-1,1] -> [0,1]
        },
        threads);
  }

  const auto inner_products = [&](const BitVec& q) {
    Vec a(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const BitVec& p = known_pairs[i].record;
      double s = 0.0;
      for (std::size_t k = 0; k < d; ++k) s += (p[k] && q[k]) ? 1.0 : 0.0;
      a[i] = s;
    }
    return a;
  };

  // Grow phase: a first feasible point is often a *subset* of the true query
  // (dropping a keyword only shifts the few constraints whose record
  // contains it). Greedily add keywords that keep the point feasible,
  // preferring high LP-relaxation values, so the returned point is maximal —
  // empirically much closer to the true Q (recall) at no precision cost.
  auto grow = [&](BitVec q, RtFit fit) {
    Vec a = inner_products(q);
    std::vector<RtFit> fits(d);
    for (std::size_t round = 0; round < d; ++round) {
      fit_probes += d;
      // Evaluate every candidate addition in parallel (each probe refits the
      // two continuous variables against a + column_k — exact integers, so
      // identical to the serial recomputation)...
      par::parallel_for(
          0, d, grain_for(200 * m),
          [&](std::size_t k) {
            if (q[k] != 0) {
              fits[k] = RtFit{};
              return;
            }
            Vec a2 = a;
            add_column(a2, k, 1.0);
            fits[k] = fit_rt(c, a2, mu, lsigma);
          },
          threads);
      // ...then select in ascending keyword order, exactly like the serial
      // scan did.
      std::size_t arg = d;
      double best_score = -opt::kInfinity;
      for (std::size_t k = 0; k < d; ++k) {
        if (q[k] != 0 || !fits[k].feasible) continue;
        // Prefer LP-supported coordinates; break ties toward additions that
        // leave the most slack in the noise bands.
        const double score = relaxed_q[k] - 0.01 * fits[k].violation;
        if (score > best_score) {
          best_score = score;
          arg = k;
        }
      }
      if (arg == d) break;
      q[arg] = 1;
      add_column(a, arg, 1.0);
      fit = fits[arg];
    }
    return std::make_pair(std::move(q), fit);
  };

  // Maximum-likelihood polish. Every point in the Eq. (14) feasible set is a
  // valid output of Algorithm 2, but the set can be loose at small m; the
  // true query is the feasible point whose implied noise terms
  // rhat*c_i - that - a_i look most like N(mu, sigma^2). Coordinate-descent
  // on the residual sum of squares (with (rhat, that) refit by closed-form
  // regression of a_i + mu on c_i), accepting only feasibility-preserving
  // flips, pulls an arbitrary feasible point toward the true one.
  const auto regression_sse = [&](const Vec& a) {
    const std::size_t n = c.size();
    double cbar = 0.0, bbar = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cbar += c[i];
      bbar += a[i] + mu;
    }
    cbar /= static_cast<double>(n);
    bbar /= static_cast<double>(n);
    double sxy = 0.0, sxx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sxy += (c[i] - cbar) * (a[i] + mu - bbar);
      sxx += (c[i] - cbar) * (c[i] - cbar);
    }
    const double rhat =
        std::clamp(sxx > 0.0 ? sxy / sxx : kRhatMin, kRhatMin, kRhatMax);
    const double that =
        std::clamp(rhat * cbar - bbar, kThatMin, kThatMax);
    double sse = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = rhat * c[i] - that - (a[i] + mu);
      sse += e * e;
    }
    return sse;
  };

  // Unconstrained descent: the feasibility requirement is dropped while
  // walking (the SSE valley between a shrunk feasible point and the true
  // query passes through infeasible intermediates); only the *final* point
  // must satisfy Eq. (14).
  auto polish = [&](BitVec q) {
    Vec a = inner_products(q);
    double cur = regression_sse(a);
    std::vector<double> sse(d);
    for (std::size_t round = 0; round < 6 * d; ++round) {
      const std::size_t ones = popcount(q);
      // Probe every single-bit flip in parallel; each probe's a2 is exact,
      // so sse[k] matches the serial recomputation bit for bit.
      par::parallel_for(
          0, d, grain_for(4 * m),
          [&](std::size_t k) {
            if (q[k] != 0 && ones == 1) {  // keep >= 1 keyword
              sse[k] = opt::kInfinity;
              return;
            }
            Vec a2 = a;
            add_column(a2, k, q[k] != 0 ? -1.0 : 1.0);
            sse[k] = regression_sse(a2);
          },
          threads);
      double best_sse = cur;
      std::size_t arg = d;
      for (std::size_t k = 0; k < d; ++k) {
        if (sse[k] < best_sse - 1e-9) {
          best_sse = sse[k];
          arg = k;
        }
      }
      if (arg == d) break;  // local minimum
      add_column(a, arg, q[arg] != 0 ? -1.0 : 1.0);
      q[arg] ^= 1;
      cur = best_sse;
    }
    return q;
  };

  auto package = [&](BitVec q, RtFit fit) {
    MipAttackResult res;
    res.found = true;
    // The point came from the primal heuristic; branch and bound never ran.
    res.status = opt::MipStatus::Heuristic;
    res.query = std::move(q);
    res.rhat = fit.rhat;
    res.that = fit.that;
    return res;
  };

  // Cap on greedy repair flips.
  const std::size_t max_flips = 3 * d;

  // Prefix scan: order coordinates by LP value and test every prefix
  // {top-1, top-2, ..., top-d} as a rounding candidate. This subsumes any
  // fixed threshold and finds a feasible support size directly.
  std::vector<std::size_t> order(d);
  for (std::size_t k = 0; k < d; ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return relaxed_q[a] > relaxed_q[b];
  });

  // Fit every prefix in parallel. A chunk rebuilds the prefix inner products
  // at its start (a_s is a 0/1 column sum — exact in doubles under any
  // grouping) and then extends incrementally, so fits[s] is bit-identical to
  // the serial one-prefix-at-a-time recomputation. The grain is a function
  // of d alone; 16-ish chunks keep the rebuild cost a small fraction of the
  // fit_rt work.
  std::vector<RtFit> prefix_fits(d);
  fit_probes += d;
  {
    obs::Span span("mip/prefix_scan");
    par::default_pool().run_chunked(
        0, d, std::max<std::size_t>(1, (d + 15) / 16),
        [&](std::size_t lo, std::size_t hi) {
          Vec a(m, 0.0);
          for (std::size_t s = 0; s < lo; ++s) add_column(a, order[s], 1.0);
          for (std::size_t s = lo; s < hi; ++s) {
            add_column(a, order[s], 1.0);
            prefix_fits[s] = fit_rt(c, a, mu, lsigma);
          }
        },
        threads);
  }

  BitVec first_feasible;
  RtFit first_feasible_fit;
  bool have_feasible = false;
  BitVec best_q;
  double best_violation = opt::kInfinity;
  BitVec q_prefix(d, 0);
  for (std::size_t s = 0; s < d; ++s) {
    q_prefix[order[s]] = 1;
    const RtFit& fit = prefix_fits[s];
    if (fit.feasible && !have_feasible) {
      first_feasible = q_prefix;
      first_feasible_fit = fit;
      have_feasible = true;
    }
    if (fit.violation < best_violation) {
      best_violation = fit.violation;
      best_q = q_prefix;
    }
  }

  // Multi-start maximum-likelihood descent: the SSE landscape has scale
  // local minima (a shrunk-support point with a proportionally shrunk rhat
  // fits well), so descend from a ladder of support sizes and keep the
  // global minimum.
  {
    obs::Span span("mip/ml_descent");
    BitVec best_ml;
    double best_sse = opt::kInfinity;
    std::size_t s = 1;
    while (s <= d) {
      BitVec q0(d, 0);
      for (std::size_t i = 0; i < s; ++i) q0[order[i]] = 1;
      BitVec qd = polish(std::move(q0));
      const double sse = regression_sse(inner_products(qd));
      if (sse < best_sse) {
        best_sse = sse;
        best_ml = std::move(qd);
      }
      s = std::max(s + 1, s + s / 3);  // geometric-ish ladder
    }
    if (!best_ml.empty()) {
      fit_probes += 1;
      const RtFit fit = fit_rt(c, inner_products(best_ml), mu, lsigma);
      if (fit.feasible) return package(std::move(best_ml), fit);
    }
  }

  if (have_feasible) {
    obs::Span span("mip/grow");
    auto [q, fit] = grow(std::move(first_feasible), first_feasible_fit);
    return package(std::move(q), fit);
  }

  // Greedy repair from the best rounding: flip the single bit that most
  // reduces the violation; stop at feasibility or a local minimum. Candidate
  // flips are probed in parallel, selected in ascending keyword order.
  obs::Span repair_span("mip/repair");
  BitVec q = std::move(best_q);
  Vec a = inner_products(q);
  std::vector<RtFit> flip_fits(d);
  for (std::size_t flip = 0; flip < max_flips; ++flip) {
    const std::size_t ones = popcount(q);
    fit_probes += d;
    par::parallel_for(
        0, d, grain_for(200 * m),
        [&](std::size_t k) {
          const std::size_t flipped = q[k] != 0 ? ones - 1 : ones + 1;
          if (flipped < 1) {
            flip_fits[k] = RtFit{};
            flip_fits[k].violation = opt::kInfinity;
            return;
          }
          Vec a2 = a;
          add_column(a2, k, q[k] != 0 ? -1.0 : 1.0);
          flip_fits[k] = fit_rt(c, a2, mu, lsigma);
        },
        threads);
    double cur = best_violation;
    std::size_t arg = d;
    for (std::size_t k = 0; k < d; ++k) {
      if (flip_fits[k].violation < cur - 1e-12) {
        cur = flip_fits[k].violation;
        arg = k;
      }
    }
    if (arg == d) break;  // local minimum
    add_column(a, arg, q[arg] != 0 ? -1.0 : 1.0);
    q[arg] ^= 1;
    best_violation = cur;
    if (flip_fits[arg].feasible) return package(q, flip_fits[arg]);
  }
  return std::nullopt;
}

}  // namespace

MipAttackResult run_mip_attack(
    const std::vector<sse::KnownBinaryPair>& known_pairs,
    const scheme::CipherPair& cipher_trapdoor, double mu, double sigma,
    const MipAttackOptions& options, const ExecContext& ctx) {
  return run_mip_attack(known_pairs, cipher_trapdoor, mu, sigma, options, ctx,
                        nullptr);
}

MipAttackResult run_mip_attack(
    const std::vector<sse::KnownBinaryPair>& known_pairs,
    const scheme::CipherPair& cipher_trapdoor, double mu, double sigma,
    const MipAttackOptions& options, const ExecContext& ctx,
    MipWarmState* warm) {
  Stopwatch watch;
  obs::ScopedRecording rec(ctx.sink);
  // Root span only when this overload owns the recording, so the trace has
  // exactly one "mip/attack" root regardless of the entry point.
  std::optional<obs::Span> root;
  if (rec.active()) root.emplace("mip/attack");

  Model model;
  {
    obs::Span span("mip/build_model");
    model = build_mip_attack_model(known_pairs, cipher_trapdoor, mu, sigma,
                                   options);
  }

  // One solver for the whole attack: the heuristic's root LP builds the
  // tableau and leaves an optimal basis, which then warm-starts the root of
  // branch and bound. Constructed lazily — the correlation-ordering
  // heuristic path usually returns without ever touching the simplex.
  std::optional<opt::SimplexSolver> solver;

  // Every run goes through the warm-state code path — callers without a
  // persistent state get a throwaway one — so a run that exports, a run
  // that attaches and a plain solo run share one pivot sequence and one
  // answer. A digest mismatch means the cached state belongs to a different
  // model: drop it and re-export from this job.
  MipWarmState scratch;
  MipWarmState* ws = warm != nullptr ? warm : &scratch;
  const std::uint64_t digest = mip_model_digest(model);
  if (ws->model_digest != digest) {
    *ws = MipWarmState{};
    ws->model_digest = digest;
  }

  MipAttackResult result;
  std::size_t fit_probes = 0;
  bool answered = false;
  if (options.use_heuristic) {
    obs::Span span("mip/heuristic");
    Vec c(known_pairs.size());
    for (std::size_t i = 0; i < known_pairs.size(); ++i) {
      c[i] = cipher_score(known_pairs[i].cipher, cipher_trapdoor);
    }
    auto heuristic =
        primal_heuristic(known_pairs, c, mu, sigma, options, model, solver,
                         ctx.resolved_threads(), fit_probes, *ws);
    if (heuristic.has_value()) {
      result = *std::move(heuristic);
      answered = true;
      obs::instant("mip/heuristic_feasible");
    }
  }

  std::size_t bnb_nodes = 0;
  std::size_t bnb_pivots = 0;
  if (!answered) {
    obs::Span span("mip/branch_and_bound");
    if (!solver.has_value()) solver.emplace(model, options.solver.lp);
    const opt::MipResult mip = opt::solve_mip(model, *solver, options.solver);
    result.status = mip.status;
    bnb_nodes = mip.nodes_explored;
    bnb_pivots = mip.simplex_iterations;
    if (mip.has_solution()) {
      result.found = true;
      result.rhat = mip.x[0];
      result.that = mip.x[1];
      const std::size_t d = known_pairs[0].record.size();
      result.query.resize(d);
      for (std::size_t k = 0; k < d; ++k) {
        result.query[k] = mip.x[2 + k] > 0.5 ? 1 : 0;
      }
    }
  }

  result.telemetry.counters["mip.model_rows"] =
      static_cast<double>(model.num_constraints());
  result.telemetry.counters["mip.model_cols"] =
      static_cast<double>(model.num_variables());
  result.telemetry.counters["mip.heuristic.fit_probes"] =
      static_cast<double>(fit_probes);
  result.telemetry.counters["mip.bnb.nodes"] = static_cast<double>(bnb_nodes);
  result.telemetry.counters["mip.bnb.simplex_iterations"] =
      static_cast<double>(bnb_pivots);

  root.reset();
  result.telemetry.wall_seconds = watch.seconds();
  result.telemetry.absorb(rec.finish());
  return result;
}

MipAttackResult run_mip_attack(const sse::MrseKpaView& view,
                               std::size_t trapdoor_id, double mu, double sigma,
                               const MipAttackOptions& options,
                               const ExecContext& ctx) {
  require(trapdoor_id < view.observed.cipher_trapdoors.size(),
          "MIP attack: no such trapdoor");
  return run_mip_attack(view.known_pairs,
                        view.observed.cipher_trapdoors[trapdoor_id], mu, sigma,
                        options, ctx);
}

}  // namespace aspe::core
