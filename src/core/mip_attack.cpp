#include "core/mip_attack.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/obs.hpp"
#include "opt/simplex.hpp"

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

/// Cap on a fit's ternary-search iterations.
constexpr int kFitIterations = 200;

/// The primal heuristic's per-job constants and its two probe kernels.
///
/// Every step of the heuristic scores many candidate queries at once: the d
/// single-bit flips of the current point (polish, grow, repair) or the d
/// prefixes of the root ordering. A candidate enters a kernel as one *lane*
/// of a row-major m x lanes matrix A of inner products a_i = P_i . Q, and
/// each kernel answers every lane in one pass over the rows, with one
/// accumulator per lane. A lane runs exactly the arithmetic of evaluating
/// its candidate alone: the same operations in the same order, every sum
/// started at 0.0 and taken in ascending row order, divisions kept as
/// divisions. The a_i are exact small integers. So each answer is bit for
/// bit that of a one-candidate evaluation, and no lane depends on which
/// other lanes share its batch. These loops must not be reassociated nor
/// built as FMA clones (no target_clones), which would round differently.
class ProbeKernel {
 public:
  /// `fit_iterations` counts each lane's ternary-search iterations.
  ProbeKernel(const std::vector<sse::KnownBinaryPair>& known_pairs,
              const Vec& c, double mu, double lsigma,
              std::size_t& fit_iterations)
      : fit_iterations_(fit_iterations),
        m_(known_pairs.size()),
        d_(known_pairs[0].record.size()),
        c_(c),
        mu_(mu),
        lsigma_(lsigma),
        r_(m_ * d_) {
    for (std::size_t i = 0; i < m_; ++i) {
      const BitVec& p = known_pairs[i].record;
      for (std::size_t k = 0; k < d_; ++k) {
        r_[i * d_ + k] = p[k] != 0 ? 1.0 : 0.0;
      }
    }
    // The regression's per-job terms, by the loops a one-query regression
    // runs: c-bar, the centred scores and sxx.
    for (std::size_t i = 0; i < m_; ++i) cbar_ += c_[i];
    cbar_ /= static_cast<double>(m_);
    cc_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      cc_[i] = c_[i] - cbar_;
      sxx_ += cc_[i] * cc_[i];
    }
  }

  /// R[i][k] = 1 when record i contains keyword k, else 0.
  [[nodiscard]] const double* record_row(std::size_t i) const {
    return r_.data() + i * d_;
  }

  /// a_i = P_i . Q for every known record.
  [[nodiscard]] Vec inner_products(const BitVec& q) const {
    Vec a(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double* row = record_row(i);
      double s = 0.0;
      for (std::size_t k = 0; k < d_; ++k) {
        if (q[k] != 0) s += row[k];
      }
      a[i] = s;
    }
    return a;
  }

  /// The inner products of Q's d single-bit flips, one lane per keyword:
  /// A[i][k] = a_i + delta_k R[i][k], with delta_k = -1 when Q holds k and
  /// +1 otherwise.
  void flips(const Vec& a, const BitVec& q, Vec& lanes) {
    delta_.resize(d_);
    for (std::size_t k = 0; k < d_; ++k) delta_[k] = q[k] != 0 ? -1.0 : 1.0;
    lanes.resize(m_ * d_);
    for (std::size_t i = 0; i < m_; ++i) {
      const double* row = record_row(i);
      double* out = lanes.data() + i * d_;
      for (std::size_t k = 0; k < d_; ++k) out[k] = a[i] + delta_[k] * row[k];
    }
  }

  /// Maximum-likelihood residual of each lane: the sum of squares of
  /// rhat c_i - that - (a_i + mu) with (rhat, that) the closed-form
  /// regression of a_i + mu on c_i, clamped to the variable bounds.
  void regression_sse(const double* lanes, std::size_t n, double* sse) {
    bbar_.assign(n, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double* a = lanes + i * n;
      for (std::size_t l = 0; l < n; ++l) bbar_[l] += a[l] + mu_;
    }
    for (std::size_t l = 0; l < n; ++l) bbar_[l] /= static_cast<double>(m_);
    sxy_.assign(n, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double* a = lanes + i * n;
      for (std::size_t l = 0; l < n; ++l) {
        sxy_[l] += cc_[i] * (a[l] + mu_ - bbar_[l]);
      }
    }
    rhat_.resize(n);
    that_.resize(n);
    for (std::size_t l = 0; l < n; ++l) {
      rhat_[l] = std::clamp(sxx_ > 0.0 ? sxy_[l] / sxx_ : kRhatMin, kRhatMin,
                            kRhatMax);
      that_[l] = std::clamp(rhat_[l] * cbar_ - bbar_[l], kThatMin, kThatMax);
    }
    std::fill(sse, sse + n, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double* a = lanes + i * n;
      for (std::size_t l = 0; l < n; ++l) {
        const double e = rhat_[l] * c_[i] - that_[l] - (a[l] + mu_);
        sse[l] += e * e;
      }
    }
  }

  /// With Q fixed, constraint i pins  that in
  /// [rhat*c_i - a_i - (mu + l sigma), rhat*c_i - a_i - (mu - l sigma)].
  /// g(rhat) = min_i hi_i - max_i lo_i (clipped by the that bounds) is
  /// concave piecewise-linear in rhat; each lane maximizes its own g by
  /// ternary search over its own (lo, hi). An iteration that moves no
  /// lane's lo or hi leaves every lane at a fixed point — each later
  /// iteration would repeat it exactly — so the search stops there, with
  /// the answer the full kFitIterations would give.
  void fit(const double* lanes, std::size_t n, RtFit* out) {
    lo_.assign(n, kRhatMin);
    hi_.assign(n, kRhatMax);
    m1_.resize(n);
    m2_.resize(n);
    g1_.resize(n);
    g2_.resize(n);
    for (int it = 0; it < kFitIterations; ++it) {
      for (std::size_t l = 0; l < n; ++l) {
        m1_[l] = lo_[l] + (hi_[l] - lo_[l]) / 3.0;
        m2_[l] = hi_[l] - (hi_[l] - lo_[l]) / 3.0;
      }
      gap(lanes, n, m1_.data(), g1_.data(), nullptr);
      gap(lanes, n, m2_.data(), g2_.data(), nullptr);
      fit_iterations_ += n;
      bool moved = false;
      for (std::size_t l = 0; l < n; ++l) {
        if (g1_[l] < g2_[l]) {
          moved = moved || lo_[l] != m1_[l];
          lo_[l] = m1_[l];
        } else {
          moved = moved || hi_[l] != m2_[l];
          hi_[l] = m2_[l];
        }
      }
      if (!moved) break;
    }
    // The final point: m1_ now holds each lane's rhat, g2_ its midpoint.
    for (std::size_t l = 0; l < n; ++l) m1_[l] = 0.5 * (lo_[l] + hi_[l]);
    gap(lanes, n, m1_.data(), g1_.data(), g2_.data());
    for (std::size_t l = 0; l < n; ++l) {
      RtFit& f = out[l];
      f.rhat = m1_[l];
      f.that = std::clamp(g2_[l], kThatMin, kThatMax);
      f.feasible = g1_[l] >= 0.0 && f.that > 0.0;
      f.violation = std::max(0.0, -g1_[l]);
    }
  }

 private:
  /// g(rhat[l]) for each lane, and the midpoint of its that interval.
  void gap(const double* lanes, std::size_t n, const double* rhat, double* g,
           double* mid) {
    up_.assign(n, kThatMax);
    down_.assign(n, kThatMin);
    for (std::size_t i = 0; i < m_; ++i) {
      const double* a = lanes + i * n;
      const double ci = c_[i];
      for (std::size_t l = 0; l < n; ++l) {
        const double center = rhat[l] * ci - a[l] - mu_;
        up_[l] = std::min(up_[l], center + lsigma_);
        down_[l] = std::max(down_[l], center - lsigma_);
      }
    }
    for (std::size_t l = 0; l < n; ++l) {
      if (mid != nullptr) mid[l] = 0.5 * (down_[l] + up_[l]);
      g[l] = up_[l] - down_[l];
    }
  }

  std::size_t& fit_iterations_;
  std::size_t m_;
  std::size_t d_;
  const Vec& c_;
  double mu_;
  double lsigma_;
  std::vector<double> r_;  // row-major m x d record matrix R
  double cbar_ = 0.0;
  std::vector<double> cc_;  // c_i - c-bar
  double sxx_ = 0.0;
  // Per-lane scratch, reused across calls.
  std::vector<double> delta_, bbar_, sxy_, rhat_, that_;
  std::vector<double> lo_, hi_, m1_, m2_, g1_, g2_, up_, down_;
};

/// Root-LP rounding + exact (rhat, that) refit + greedy bit-flip repair.
/// Returns a feasible point when it finds one. Runs serially; every probe
/// loop is a batched ProbeKernel pass and every selection scan runs in
/// ascending keyword order.
std::optional<MipAttackResult> primal_heuristic(
    const std::vector<sse::KnownBinaryPair>& known_pairs, const Vec& c,
    double mu, double sigma, const MipAttackOptions& options,
    const Model& model, std::optional<opt::SimplexSolver>& solver,
    std::size_t& fit_probes, std::size_t& polish_rounds,
    std::size_t& fit_iterations, MipWarmState& warm) {
  const std::size_t d = known_pairs[0].record.size();
  const std::size_t m = known_pairs.size();
  ProbeKernel kernel(known_pairs, c, mu, options.l * sigma, fit_iterations);

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
    for (std::size_t k = 0; k < d; ++k) {
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
    }
  }

  // Candidate lanes (m x d) and their answers, shared by every phase.
  Vec lanes;
  std::vector<RtFit> fits(d);
  std::vector<double> sse(d);
  // After choosing flip `arg`, its lane already holds the new point's
  // inner products.
  const auto take_lane = [&](Vec& a, std::size_t arg) {
    for (std::size_t i = 0; i < m; ++i) a[i] = lanes[i * d + arg];
  };

  // Grow phase: a first feasible point is often a *subset* of the true query
  // (dropping a keyword only shifts the few constraints whose record
  // contains it). Greedily add keywords that keep the point feasible,
  // preferring high LP-relaxation values, so the returned point is maximal —
  // empirically much closer to the true Q (recall) at no precision cost.
  auto grow = [&](BitVec q, RtFit fit) {
    Vec a = kernel.inner_products(q);
    for (std::size_t round = 0; round < d; ++round) {
      fit_probes += d;
      // Every lane with q[k] = 0 is "add keyword k"; the others are unused.
      kernel.flips(a, q, lanes);
      kernel.fit(lanes.data(), d, fits.data());
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
      take_lane(a, arg);
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
  //
  // Unconstrained descent: the feasibility requirement is dropped while
  // walking (the SSE valley between a shrunk feasible point and the true
  // query passes through infeasible intermediates); only the *final* point
  // must satisfy Eq. (14). Returns the point and its SSE.
  auto polish = [&](BitVec q) {
    Vec a = kernel.inner_products(q);
    double cur = 0.0;
    kernel.regression_sse(a.data(), 1, &cur);
    for (std::size_t round = 0; round < 6 * d; ++round) {
      ++polish_rounds;
      const std::size_t ones = popcount(q);
      kernel.flips(a, q, lanes);
      kernel.regression_sse(lanes.data(), d, sse.data());
      double best_sse = cur;
      std::size_t arg = d;
      for (std::size_t k = 0; k < d; ++k) {
        if (q[k] != 0 && ones == 1) continue;  // keep >= 1 keyword
        if (sse[k] < best_sse - 1e-9) {
          best_sse = sse[k];
          arg = k;
        }
      }
      if (arg == d) break;  // local minimum
      take_lane(a, arg);
      q[arg] ^= 1;
      cur = best_sse;
    }
    return std::make_pair(std::move(q), cur);
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
  // fixed threshold and finds a feasible support size directly. Lane s
  // holds the inner products of the prefix of length s + 1.
  std::vector<std::size_t> order(d);
  for (std::size_t k = 0; k < d; ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return relaxed_q[a] > relaxed_q[b];
  });

  fit_probes += d;
  {
    obs::Span span("mip/prefix_scan");
    lanes.resize(m * d);
    for (std::size_t i = 0; i < m; ++i) {
      const double* row = kernel.record_row(i);
      double s = 0.0;
      for (std::size_t t = 0; t < d; ++t) {
        s += row[order[t]];
        lanes[i * d + t] = s;
      }
    }
    kernel.fit(lanes.data(), d, fits.data());
  }

  BitVec first_feasible;
  RtFit first_feasible_fit;
  bool have_feasible = false;
  BitVec best_q;
  double best_violation = opt::kInfinity;
  BitVec q_prefix(d, 0);
  for (std::size_t s = 0; s < d; ++s) {
    q_prefix[order[s]] = 1;
    const RtFit& fit = fits[s];
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
      auto [qd, sse_d] = polish(std::move(q0));
      if (sse_d < best_sse) {
        best_sse = sse_d;
        best_ml = std::move(qd);
      }
      s = std::max(s + 1, s + s / 3);  // geometric-ish ladder
    }
    if (!best_ml.empty()) {
      fit_probes += 1;
      RtFit fit;
      kernel.fit(kernel.inner_products(best_ml).data(), 1, &fit);
      if (fit.feasible) return package(std::move(best_ml), fit);
    }
  }

  if (have_feasible) {
    obs::Span span("mip/grow");
    auto [q, fit] = grow(std::move(first_feasible), first_feasible_fit);
    return package(std::move(q), fit);
  }

  // Greedy repair from the best rounding: flip the single bit that most
  // reduces the violation; stop at feasibility or a local minimum.
  obs::Span repair_span("mip/repair");
  BitVec q = std::move(best_q);
  Vec a = kernel.inner_products(q);
  for (std::size_t flip = 0; flip < max_flips; ++flip) {
    const std::size_t ones = popcount(q);
    fit_probes += d;
    kernel.flips(a, q, lanes);
    kernel.fit(lanes.data(), d, fits.data());
    double cur = best_violation;
    std::size_t arg = d;
    for (std::size_t k = 0; k < d; ++k) {
      if (q[k] != 0 && ones == 1) continue;  // keep >= 1 keyword
      if (fits[k].violation < cur - 1e-12) {
        cur = fits[k].violation;
        arg = k;
      }
    }
    if (arg == d) break;  // local minimum
    take_lane(a, arg);
    q[arg] ^= 1;
    best_violation = cur;
    if (fits[arg].feasible) return package(q, fits[arg]);
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
  std::size_t polish_rounds = 0;
  std::size_t fit_iterations = 0;
  bool answered = false;
  if (options.use_heuristic) {
    obs::Span span("mip/heuristic");
    Vec c(known_pairs.size());
    for (std::size_t i = 0; i < known_pairs.size(); ++i) {
      c[i] = cipher_score(known_pairs[i].cipher, cipher_trapdoor);
    }
    auto heuristic =
        primal_heuristic(known_pairs, c, mu, sigma, options, model, solver,
                         fit_probes, polish_rounds, fit_iterations, *ws);
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
  result.telemetry.counters["mip.heuristic.polish_rounds"] =
      static_cast<double>(polish_rounds);
  result.telemetry.counters["mip.heuristic.fit_iterations"] =
      static_cast<double>(fit_iterations);
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
