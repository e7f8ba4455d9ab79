// Ablation: components of the MIP attack solver (DESIGN.md §4.1).
//
// The paper used Gurobi as a black box; our substitute stacks a primal
// heuristic (LP/correlation prefix scan -> exact 2-variable refit -> grow ->
// maximum-likelihood polish) on branch-and-bound. Attack-level variants
// (which stage answers Algorithm 2):
//      bnb_cold    : pure branch and bound, every node LP solved from scratch
//      bnb_warm    : pure branch and bound, dual-simplex warm starts (the
//                    solver's only search)
//      heuristic   : full primal heuristic (the attack default)
//      lp_root     : heuristic with LP-relaxation ordering forced
//      corr_root   : heuristic with correlation ordering forced
//
// Usage: bench_ablation_mip [--d=60] [--queries=N] [--seed=S]
#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/mip_attack.hpp"
#include "data/quest.hpp"
#include "opt/mip.hpp"
#include "sse/adversary_view.hpp"
#include "sse/system.hpp"

using namespace aspe;

namespace {

struct Variant {
  const char* name;
  core::MipAttackOptions options;
};

opt::MipOptions plain_warm_solver() {
  opt::MipOptions s;
  s.first_feasible = true;
  s.time_limit_seconds = 5.0;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto d = static_cast<std::size_t>(flags.get_int("d", 60));
  const auto num_queries =
      static_cast<std::size_t>(flags.get_int("queries", 8));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2017));

  bench::print_banner("Ablation: MIP attack solver components",
                      "Gurobi-substitute design choices (DESIGN.md §4.1)");
  std::printf("d = m = %zu, rho = 0.25, sigma = 0.5, %zu queries\n\n", d,
              num_queries);

  std::vector<Variant> variants;
  {
    Variant v{"bnb_cold", {}};
    v.options.use_heuristic = false;
    v.options.solver = plain_warm_solver();
    v.options.solver.warm_start = false;
    variants.push_back(v);
  }
  {
    Variant v{"bnb_warm", {}};
    v.options.use_heuristic = false;
    v.options.solver = plain_warm_solver();
    variants.push_back(v);
  }
  {
    Variant v{"heuristic", {}};
    variants.push_back(v);
  }
  {
    Variant v{"lp_root", {}};
    v.options.root_ordering = core::RootOrdering::LpRelaxation;
    variants.push_back(v);
  }
  {
    Variant v{"corr_root", {}};
    v.options.root_ordering = core::RootOrdering::Correlation;
    variants.push_back(v);
  }

  // One shared scenario so variants are comparable.
  scheme::MrseOptions opt;
  opt.vocab_dim = d;
  opt.sigma = 0.5;
  sse::RankedSearchSystem system(opt, seed);
  rng::Rng rng(seed ^ 0xabc);
  data::QuestOptions qopt;
  qopt.num_items = d;
  qopt.density = 0.25;
  qopt.num_transactions = d;
  system.upload_records(data::QuestGenerator(qopt, rng.child(1)).generate());
  std::vector<BitVec> queries;
  for (std::size_t qi = 0; qi < num_queries; ++qi) {
    queries.push_back(rng.binary_with_k_ones(d, 10));
    system.ranked_query(queries.back(), 10);
  }
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < d; ++i) ids.push_back(i);
  const auto view = sse::leak_known_records(system, ids);

  bench::TablePrinter table({"variant", "P@query", "R@query", "Time(s)",
                             "nodes", "LPiters", "solved"},
                            12);
  table.print_header();
  for (const auto& variant : variants) {
    int solved = 0;
    double seconds = 0.0;
    std::size_t nodes = 0;
    std::size_t lp_iters = 0;
    std::vector<core::PrecisionRecall> prs;
    for (std::size_t qi = 0; qi < num_queries; ++qi) {
      const auto res =
          core::run_mip_attack(view, qi, opt.mu, opt.sigma, variant.options);
      nodes += static_cast<std::size_t>(res.telemetry.counter("mip.bnb.nodes"));
      lp_iters += static_cast<std::size_t>(
          res.telemetry.counter("mip.bnb.simplex_iterations"));
      if (!res.found) continue;
      ++solved;
      seconds += res.telemetry.wall_seconds;
      prs.push_back(core::binary_precision_recall(queries[qi], res.query));
    }
    const auto avg = core::average(prs);
    table.print_row({variant.name,
                     avg.precision_valid ? bench::fmt(avg.precision) : "-",
                     avg.recall_valid ? bench::fmt(avg.recall) : "-",
                     bench::fmt(solved > 0 ? seconds / solved : 0.0, 3),
                     std::to_string(nodes), std::to_string(lp_iters),
                     std::to_string(solved) + "/" +
                         std::to_string(num_queries)});
  }

  return 0;
}
