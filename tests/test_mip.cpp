#include "opt/mip.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "rng/rng.hpp"

namespace aspe::opt {
namespace {

TEST(Mip, SolvesPureLpWhenNoIntegers) {
  Model m;
  const auto x = m.add_variable(0.0, 10.0);
  m.add_constraint({{x, 1.0}}, Sense::LessEqual, 4.0);
  m.set_objective({{x, -1.0}});
  const MipResult r = solve_mip(m);
  ASSERT_TRUE(r.has_solution());
  EXPECT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.x[0], 4.0, 1e-7);
}

TEST(Mip, KnapsackSmall) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary -> a=0? enumerate:
  // (1,0,1): 17 weight 5; (0,1,1): 20? weight 6 ok -> 20 optimal.
  Model m;
  const auto a = m.add_binary();
  const auto b = m.add_binary();
  const auto c = m.add_binary();
  m.add_constraint({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Sense::LessEqual, 6.0);
  m.set_objective({{a, -10.0}, {b, -13.0}, {c, -7.0}});
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, -20.0, 1e-6);
  EXPECT_NEAR(r.x[0], 0.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
  EXPECT_NEAR(r.x[2], 1.0, 1e-6);
}

TEST(Mip, IntegerRounding) {
  // min x s.t. 2x >= 5, x integer in [0, 10] -> x = 3.
  Model m;
  const auto x = m.add_variable(0.0, 10.0, VarType::Integer);
  m.add_constraint({{x, 2.0}}, Sense::GreaterEqual, 5.0);
  m.set_objective({{x, 1.0}});
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.x[0], 3.0, 1e-9);
}

TEST(Mip, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6, x binary -> infeasible.
  Model m;
  const auto x = m.add_binary();
  m.add_constraint({{x, 1.0}}, Sense::GreaterEqual, 0.4);
  m.add_constraint({{x, 1.0}}, Sense::LessEqual, 0.6);
  const MipResult r = solve_mip(m);
  EXPECT_EQ(r.status, MipStatus::Infeasible);
  EXPECT_FALSE(r.has_solution());
}

TEST(Mip, FirstFeasibleStopsEarly) {
  Model m;
  std::vector<std::size_t> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(m.add_binary());
  LinExpr sum;
  for (auto v : vars) sum.push_back({v, 1.0});
  m.add_constraint(sum, Sense::Equal, 5.0);
  MipOptions opt;
  opt.first_feasible = true;
  const MipResult r = solve_mip(m, opt);
  ASSERT_TRUE(r.has_solution());
  double total = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(std::abs(r.x[i]) < 1e-9 || std::abs(r.x[i] - 1.0) < 1e-9);
    total += r.x[i];
  }
  EXPECT_NEAR(total, 5.0, 1e-6);
}

TEST(Mip, MixedContinuousAndBinary) {
  // min y s.t. y >= 1.3 - b, y >= b - 0.2, y >= 0, b binary.
  // b=1 -> y >= 0.8? no: y >= 0.3 and y >= 0.8 -> 0.8. b=0 -> y >= 1.3.
  Model m;
  const auto y = m.add_variable(0.0, kInfinity);
  const auto b = m.add_binary();
  m.add_constraint({{y, 1.0}, {b, 1.0}}, Sense::GreaterEqual, 1.3);
  m.add_constraint({{y, 1.0}, {b, -1.0}}, Sense::GreaterEqual, -0.2);
  m.set_objective({{y, 1.0}});
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
  EXPECT_NEAR(r.x[0], 0.8, 1e-6);
}

TEST(Mip, NodeLimitReported) {
  // A deliberately hard equal-split instance with a tiny node budget.
  Model m;
  std::vector<std::size_t> vars;
  rng::Rng rng(5);
  LinExpr sum;
  for (int i = 0; i < 24; ++i) {
    const auto v = m.add_binary();
    vars.push_back(v);
    sum.push_back({v, rng.uniform(0.9, 1.1)});
  }
  m.add_constraint(sum, Sense::Equal, 11.9431);  // unlikely to be hit
  MipOptions opt;
  opt.first_feasible = true;
  opt.max_nodes = 3;
  const MipResult r = solve_mip(m, opt);
  EXPECT_FALSE(r.has_solution());
  EXPECT_TRUE(r.status == MipStatus::NodeLimit ||
              r.status == MipStatus::Infeasible);
}

TEST(Mip, RandomFeasibleBinaryProblemsAreSolved) {
  // Plant a binary solution, add consistent inequalities, require recovery of
  // *some* feasible point.
  rng::Rng rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 6 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    BitVec planted(n);
    for (auto& b : planted) b = rng.bernoulli(0.5);
    Model m;
    for (std::size_t j = 0; j < n; ++j) m.add_binary();
    for (int row = 0; row < 8; ++row) {
      LinExpr e;
      double lhs = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double c = std::round(rng.uniform(-3.0, 3.0));
        if (c == 0.0) continue;
        e.push_back({j, c});
        lhs += c * planted[j];
      }
      if (e.empty()) continue;
      m.add_constraint(std::move(e), Sense::LessEqual, lhs + 0.25);
    }
    MipOptions opt;
    opt.first_feasible = true;
    const MipResult r = solve_mip(m, opt);
    ASSERT_TRUE(r.has_solution()) << "trial " << trial;
    EXPECT_LE(m.max_violation(r.x), 1e-6);
  }
}

TEST(Mip, OptimalityMatchesExhaustiveEnumeration) {
  // 6 binaries, random objective and one random row: brute force check.
  rng::Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 6;
    Vec cost(n), coef(n);
    for (auto& c : cost) c = std::round(rng.uniform(-5.0, 5.0));
    for (auto& c : coef) c = std::round(rng.uniform(-3.0, 3.0));
    const double rhs = std::round(rng.uniform(-2.0, 4.0));

    Model m;
    LinExpr obj, row;
    for (std::size_t j = 0; j < n; ++j) {
      m.add_binary();
      obj.push_back({j, cost[j]});
      row.push_back({j, coef[j]});
    }
    m.add_constraint(row, Sense::LessEqual, rhs);
    m.set_objective(obj);
    const MipResult r = solve_mip(m);

    double best = kInfinity;
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      double lhs = 0.0, val = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (mask & (1u << j)) {
          lhs += coef[j];
          val += cost[j];
        }
      }
      if (lhs <= rhs + 1e-9) best = std::min(best, val);
    }
    if (best == kInfinity) {
      EXPECT_EQ(r.status, MipStatus::Infeasible) << "trial " << trial;
    } else {
      ASSERT_EQ(r.status, MipStatus::Optimal) << "trial " << trial;
      EXPECT_NEAR(r.objective, best, 1e-6) << "trial " << trial;
    }
  }
}

TEST(Mip, DefaultOptionsAreBitwiseDeterministic) {
  // Two runs of the warm-started DFS must agree on every count and every
  // solution bit.
  rng::Rng rng(61);
  const std::size_t n = 14;
  Model m;
  LinExpr sum;
  for (std::size_t j = 0; j < n; ++j) {
    m.add_binary();
    sum.push_back({j, rng.uniform(0.9, 1.1)});
  }
  m.add_constraint(sum, Sense::LessEqual, 6.3);
  m.add_constraint(sum, Sense::GreaterEqual, 5.7);
  LinExpr obj;
  for (std::size_t j = 0; j < n; ++j) {
    obj.push_back({j, std::round(rng.uniform(-4.0, 4.0))});
  }
  m.set_objective(obj);
  const MipOptions o;
  const MipResult a = solve_mip(m, o);
  const MipResult b = solve_mip(m, o);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.simplex_iterations, b.simplex_iterations);
  EXPECT_EQ(a.objective, b.objective);
  if (a.has_solution()) {
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t j = 0; j < a.x.size(); ++j) EXPECT_EQ(a.x[j], b.x[j]);
  }
}

}  // namespace
}  // namespace aspe::opt
