#include "core/mip_attack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "bit_digest.hpp"
#include "core/metrics.hpp"
#include "data/quest.hpp"
#include "data/queries.hpp"
#include "obs/sinks.hpp"
#include "rng/rng.hpp"

namespace aspe::core {
namespace {

struct Scenario {
  std::vector<BitVec> records;
  BitVec query;
  sse::MrseKpaView view;
  double mu;
  double sigma;
};

/// `trapdoors` queries are issued; `query` is the first (trapdoor 0).
Scenario make_scenario(std::size_t d, std::size_t m, double density,
                       double sigma, std::size_t query_ones,
                       std::uint64_t seed, std::size_t trapdoors = 1) {
  scheme::MrseOptions opt;
  opt.vocab_dim = d;
  opt.sigma = sigma;
  opt.mu = 1.0;
  sse::RankedSearchSystem system(opt, seed);
  rng::Rng rng(seed ^ 0x5555);

  Scenario s;
  s.mu = opt.mu;
  s.sigma = sigma;
  data::QuestOptions qopt;
  qopt.num_items = d;
  qopt.density = density;
  qopt.num_transactions = m;
  s.records = data::QuestGenerator(qopt, rng.child(1)).generate();
  system.upload_records(s.records);

  s.query = rng.binary_with_k_ones(d, query_ones);
  system.ranked_query(s.query, 5);
  for (std::size_t t = 1; t < trapdoors; ++t) {
    system.ranked_query(rng.binary_with_k_ones(d, query_ones), 5);
  }

  std::vector<std::size_t> all_ids;
  for (std::size_t i = 0; i < m; ++i) all_ids.push_back(i);
  s.view = sse::leak_known_records(system, all_ids);
  return s;
}

MipAttackOptions fast_options() {
  MipAttackOptions opt;
  opt.solver.time_limit_seconds = 15.0;
  return opt;
}

TEST(MipAttack, ReconstructsQueryOnModerateDensity) {
  // d = m = 30, rho = 20%, sigma = 0.5 — the "realistic" regime of Table II
  // at reduced scale. Expect high precision/recall of the found solution.
  const Scenario s = make_scenario(30, 30, 0.20, 0.5, 5, 1);
  const MipAttackResult res =
      run_mip_attack(s.view, 0, s.mu, s.sigma, fast_options());
  ASSERT_TRUE(res.found) << "status=" << static_cast<int>(res.status);
  const auto pr = binary_precision_recall(s.query, res.query);
  EXPECT_GE(pr.precision, 0.6);
  EXPECT_GE(pr.recall, 0.6);
}

TEST(MipAttack, TrueQueryIsAlwaysFeasibleForLargeL) {
  // Feasibility sanity: with l large, the true (rhat, that, Q) satisfies
  // every constraint, so the model must be feasible.
  const Scenario s = make_scenario(20, 20, 0.25, 0.5, 4, 3);
  MipAttackOptions opt = fast_options();
  opt.l = 6.0;
  const MipAttackResult res = run_mip_attack(s.view, 0, s.mu, s.sigma, opt);
  EXPECT_TRUE(res.found);
}

TEST(MipAttack, SolutionSatisfiesNoiseBand) {
  const Scenario s = make_scenario(24, 24, 0.2, 0.5, 4, 5);
  const MipAttackOptions opt = fast_options();
  const MipAttackResult res = run_mip_attack(s.view, 0, s.mu, s.sigma, opt);
  ASSERT_TRUE(res.found);
  EXPECT_GT(res.rhat, 0.0);
  EXPECT_GT(res.that, 0.0);
  // Recheck Eq. (14) on the returned point.
  for (const auto& pair : s.view.known_pairs) {
    const double c = scheme::cipher_score(
        pair.cipher, s.view.observed.cipher_trapdoors[0]);
    double pq = 0.0;
    for (std::size_t k = 0; k < res.query.size(); ++k) {
      pq += pair.record[k] && res.query[k] ? 1.0 : 0.0;
    }
    const double noise = res.rhat * c - res.that - pq;
    EXPECT_GE(noise, s.mu - opt.l * s.sigma - 1e-5);
    EXPECT_LE(noise, s.mu + opt.l * s.sigma + 1e-5);
  }
}

TEST(MipAttack, MorePairsImproveAccuracy) {
  // The paper's Figure 2 trend at miniature scale: accuracy grows with m.
  double small_f1 = 0.0, large_f1 = 0.0;
  int small_found = 0, large_found = 0;
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    const Scenario small = make_scenario(24, 6, 0.25, 0.5, 4, seed);
    const Scenario large = make_scenario(24, 36, 0.25, 0.5, 4, seed);
    const auto rs =
        run_mip_attack(small.view, 0, small.mu, small.sigma, fast_options());
    const auto rl =
        run_mip_attack(large.view, 0, large.mu, large.sigma, fast_options());
    auto f1 = [](const PrecisionRecall& pr) {
      const double p = pr.precision_valid ? pr.precision : 0.0;
      const double r = pr.recall_valid ? pr.recall : 0.0;
      return p + r > 0 ? 2 * p * r / (p + r) : 0.0;
    };
    if (rs.found) {
      small_f1 += f1(binary_precision_recall(small.query, rs.query));
      ++small_found;
    }
    if (rl.found) {
      large_f1 += f1(binary_precision_recall(large.query, rl.query));
      ++large_found;
    }
  }
  ASSERT_GT(large_found, 0);
  if (small_found > 0) {
    EXPECT_GE(large_f1 / large_found, small_f1 / small_found - 0.15);
  }
}

TEST(MipAttack, InfeasibleWhenBandTooTight) {
  // l -> 0 shrinks the noise band to a point; the model should be infeasible
  // (or at least find nothing) because actual noises are spread out.
  const Scenario s = make_scenario(16, 16, 0.3, 0.5, 3, 21);
  MipAttackOptions opt = fast_options();
  opt.l = 1e-6;
  const MipAttackResult res = run_mip_attack(s.view, 0, s.mu, s.sigma, opt);
  EXPECT_FALSE(res.found);
}

TEST(MipAttack, ModelShape) {
  const Scenario s = make_scenario(10, 7, 0.3, 0.5, 2, 23);
  const opt::Model model = build_mip_attack_model(
      s.view.known_pairs, s.view.observed.cipher_trapdoors[0], s.mu, s.sigma,
      MipAttackOptions{});
  // 2 continuous + d binaries; 1 cardinality row + 2 rows per pair.
  EXPECT_EQ(model.num_variables(), 2u + 10u);
  EXPECT_EQ(model.num_constraints(), 1u + 2u * 7u);
  EXPECT_TRUE(model.has_integer_variables());
}

TEST(MipAttack, Validation) {
  EXPECT_THROW(
      build_mip_attack_model({}, scheme::CipherPair{}, 1.0, 0.5,
                             MipAttackOptions{}),
      InvalidArgument);
  const Scenario s = make_scenario(8, 5, 0.3, 0.5, 2, 25);
  EXPECT_THROW(run_mip_attack(s.view, 9, s.mu, s.sigma, MipAttackOptions{}),
               InvalidArgument);  // trapdoor id out of range
}

TEST(MipAttack, BranchAndBoundFallbackIsWarmColdAndThreadInvariant) {
  // A tight band (l = 1) makes the primal heuristic miss on these instances,
  // so branch and bound answers from the solver the heuristic's root LP left
  // behind. A job that attaches a cached root basis, and a job at 8 threads,
  // must reproduce the cold serial answer and B&B counters bit for bit.
  std::size_t fallbacks = 0;
  for (const std::uint64_t seed : {1u, 5u, 25u}) {
    const Scenario s = make_scenario(12, 12, 0.2, 0.5, 4, seed);
    MipAttackOptions opt = fast_options();
    opt.l = 1.0;
    const auto& td = s.view.observed.cipher_trapdoors[0];
    ExecContext serial;
    serial.threads = 1;
    ExecContext wide;
    wide.threads = 8;
    MipWarmState state;
    const MipAttackResult cold = run_mip_attack(
        s.view.known_pairs, td, s.mu, s.sigma, opt, serial, &state);
    ASSERT_TRUE(state.has_root_basis) << "seed " << seed;
    const MipAttackResult warm = run_mip_attack(
        s.view.known_pairs, td, s.mu, s.sigma, opt, serial, &state);
    const MipAttackResult threaded =
        run_mip_attack(s.view, 0, s.mu, s.sigma, opt, wide);
    if (cold.status == opt::MipStatus::Heuristic) continue;
    ++fallbacks;
    for (const MipAttackResult* other : {&warm, &threaded}) {
      EXPECT_EQ(other->status, cold.status) << "seed " << seed;
      EXPECT_EQ(other->found, cold.found) << "seed " << seed;
      EXPECT_EQ(other->query, cold.query) << "seed " << seed;
      EXPECT_EQ(other->rhat, cold.rhat) << "seed " << seed;
      EXPECT_EQ(other->that, cold.that) << "seed " << seed;
      for (const char* name : {"mip.bnb.nodes", "mip.bnb.simplex_iterations"}) {
        EXPECT_EQ(other->telemetry.counter(name), cold.telemetry.counter(name))
            << name << " seed " << seed;
      }
    }
  }
  EXPECT_GT(fallbacks, 0u) << "no instance reached branch and bound";
}

TEST(MipAttack, TableIiCellsPinSimplexWorkAndAnswers) {
  // One d = m = 100 instance per Table II (sigma, rho) cell with a
  // 15-keyword query. Pivot and reinversion counts are integers and the
  // answer is a set of keyword ids, so the pin is host independent. Any
  // change to the simplex arithmetic that moves one rounded value moves a
  // pivot somewhere and shows up here.
  struct Pin {
    double sigma;
    double rho;
    std::uint64_t seed;
    double primal_iterations;
    double refactorizations;
    std::vector<std::size_t> ones;  // recovered query bits
  };
  const std::vector<Pin> pins = {
      {0.5, 0.05, 101, 225, 4,
       {2, 5, 20, 38, 47, 48, 63, 71, 75, 78, 81, 89, 90, 97}},
      {0.5, 0.20, 102, 214, 4,
       {4, 20, 23, 28, 36, 43, 44, 55, 62, 67, 75, 79, 88, 93, 98}},
      {0.5, 0.35, 103, 213, 4,
       {3, 17, 19, 25, 40, 42, 43, 45, 50, 54, 55, 56, 71, 74, 80}},
      {1.0, 0.05, 104, 205, 4, {5, 31, 54, 76, 83, 90, 94, 98, 99}},
      {1.0, 0.20, 105, 213, 4, {44, 59, 99}},
      {1.0, 0.35, 106, 225, 4, {52}},
  };
  for (const Pin& pin : pins) {
    const Scenario s =
        make_scenario(100, 100, pin.rho, pin.sigma, 15, pin.seed);
    obs::MemorySink sink;
    ExecContext ctx;
    ctx.sink = &sink;
    const MipAttackResult res =
        run_mip_attack(s.view, 0, s.mu, s.sigma, MipAttackOptions{}, ctx);
    std::vector<std::size_t> ones;
    for (std::size_t k = 0; k < res.query.size(); ++k) {
      if (res.query[k] != 0) ones.push_back(k);
    }
    const double primal = res.telemetry.counter("simplex.primal_iterations");
    const double refactors = res.telemetry.counter("simplex.refactorizations");
    std::ostringstream actual;
    actual << "{" << pin.sigma << ", " << pin.rho << ", " << pin.seed << ", "
           << primal << ", " << refactors << ", {";
    for (std::size_t i = 0; i < ones.size(); ++i) {
      actual << (i ? ", " : "") << ones[i];
    }
    actual << "}}";
    ASSERT_TRUE(res.found) << actual.str();
    EXPECT_EQ(primal, pin.primal_iterations) << actual.str();
    EXPECT_EQ(refactors, pin.refactorizations) << actual.str();
    EXPECT_EQ(ones, pin.ones) << actual.str();
  }
}

TEST(MipAttack, HeuristicFitStopsAtFixedPoint) {
  // A Table II cell: each fit's ternary search stops at the first iteration
  // that moves no lane, well before its 200-iteration cap, and the polish
  // runs its batched probe rounds.
  const Scenario s = make_scenario(100, 100, 0.20, 0.5, 15, 102);
  const MipAttackResult res =
      run_mip_attack(s.view, 0, s.mu, s.sigma, MipAttackOptions{});
  ASSERT_EQ(res.status, opt::MipStatus::Heuristic);
  const double probes = res.telemetry.counter("mip.heuristic.fit_probes");
  const double iterations =
      res.telemetry.counter("mip.heuristic.fit_iterations");
  EXPECT_GT(probes, 0.0);
  EXPECT_GT(iterations, 0.0);
  EXPECT_LT(iterations, 200.0 * probes);
  EXPECT_GT(res.telemetry.counter("mip.heuristic.polish_rounds"), 0.0);
}

bool has_span(const MipAttackResult& res, const std::string& name) {
  return std::any_of(res.telemetry.spans.begin(), res.telemetry.spans.end(),
                     [&](const obs::SpanStat& st) { return st.name == name; });
}

TEST(MipAttack, HeuristicPinnedBitwise) {
  // Digests found, status, the query bytes and the bits of rhat and that,
  // at 1 and 4 threads, over every path of the primal heuristic: the six
  // Table II cells (d = m = 100, 15-keyword queries, root LP ordering) with
  // four trapdoors each; one correlation-ordering instance (m > 300); one
  // instance the grow phase answers and one the greedy repair answers. The
  // digest was recorded before the heuristic's probe loops were batched, so
  // it holds any rewrite of them to the original arithmetic bit for bit.
  struct Instance {
    std::size_t d, m;
    double rho, sigma, l;
    std::size_t query_ones;
    std::uint64_t seed;
    std::size_t trapdoors;
    const char* span;  // the heuristic path the instance must take
  };
  std::vector<Instance> instances;
  const double cells[6][2] = {{0.5, 0.05}, {0.5, 0.20}, {0.5, 0.35},
                              {1.0, 0.05}, {1.0, 0.20}, {1.0, 0.35}};
  for (std::size_t i = 0; i < 6; ++i) {
    instances.push_back({100, 100, cells[i][1], cells[i][0], 3.0, 15,
                         101 + i, 4, "mip/root_relaxation"});
  }
  instances.push_back(
      {30, 320, 0.2, 0.5, 3.0, 5, 7, 1, "mip/correlation_ordering"});
  instances.push_back({30, 30, 0.2, 0.5, 1.5, 5, 11, 1, "mip/grow"});
  instances.push_back({30, 30, 0.2, 0.5, 1.5, 5, 24, 1, "mip/repair"});

  pinning::Fnv1a digest;
  for (const Instance& in : instances) {
    const Scenario s = make_scenario(in.d, in.m, in.rho, in.sigma,
                                     in.query_ones, in.seed, in.trapdoors);
    MipAttackOptions opt = fast_options();
    opt.l = in.l;
    for (std::size_t t = 0; t < in.trapdoors; ++t) {
      for (const std::size_t threads : {1u, 4u}) {
        obs::MemorySink sink;
        ExecContext ctx;
        ctx.threads = threads;
        ctx.sink = &sink;
        const MipAttackResult res =
            run_mip_attack(s.view, t, s.mu, s.sigma, opt, ctx);
        EXPECT_TRUE(has_span(res, in.span))
            << in.span << " seed " << in.seed << " trapdoor " << t;
        // The heuristic answers, so the digest covers that path's fits.
        EXPECT_EQ(res.status, opt::MipStatus::Heuristic)
            << "seed " << in.seed << " trapdoor " << t;
        digest.add(std::uint64_t{res.found});
        digest.add(static_cast<std::uint64_t>(res.status));
        digest.add(std::uint64_t{res.query.size()});
        for (const std::uint8_t b : res.query) digest.add(std::uint64_t{b});
        digest.add(res.rhat);
        digest.add(res.that);
      }
    }
  }
  EXPECT_EQ(digest.h, 0xbe79598cad28bab9ull) << std::hex << "0x" << digest.h;
}

}  // namespace
}  // namespace aspe::core
