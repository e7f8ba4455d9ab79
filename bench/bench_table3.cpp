// Table III (§VI-B1): SNMF attack precision/recall/runtime on synthetic
// data (random binary indexes/trapdoors encrypted with the Scheme-2
// apparatus).
//
// Paper grid: d in {100, 500, 1000}, m = n = 2d, rho in {5%, 20%, 35%}
// (their runs took up to 2.3 CPU-days). Default here: d in {20, 40};
// --full uses d in {100, 250} and 300 iterations. Both run the paper's ANLS
// at all hardware threads (answers are thread-invariant).
// Precision/recall are computed after the optimal latent relabeling
// (DESIGN.md §4.5).
//
// Usage: bench_table3 [--full] [--dims=20,40] [--rhos=0.05,0.2,0.35]
//                     [--restarts=L] [--iters=N] [--seed=S]
//                     [--trace-json=PATH] [--metrics-json=PATH]
#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/metrics.hpp"
#include "core/snmf_attack.hpp"
#include "scheme/split_encryptor.hpp"

using namespace aspe;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const bool full = flags.get_bool("full", false);
  const std::vector<int> dims = flags.get_int_list(
      "dims", full ? std::vector<int>{100, 250} : std::vector<int>{20, 40});
  const std::vector<double> rhos =
      flags.get_double_list("rhos", {0.05, 0.20, 0.35});
  const auto restarts =
      static_cast<std::size_t>(flags.get_int("restarts", 3));
  const auto iters = static_cast<std::size_t>(
      flags.get_int("iters", full ? 300 : 250));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2017));
  bench::ObsFlags obs_flags(flags);

  bench::print_banner(
      "Table III: SNMF attack on MKFSE-style ciphertexts, synthetic data",
      "P/R of reconstructed indexes (I*) and trapdoors (T*), m = n = 2d");
  std::printf("restarts L = %zu, nmf iterations <= %zu, theta = 0.5\n",
              restarts, iters);
  std::printf("threads = %zu\n\n", par::default_threads());

  bench::TablePrinter table({"d", "m=n", "rho", "P@data", "R@data", "P@query",
                             "R@query", "Time(s)"},
                            10);
  table.print_header();

  for (int d_int : dims) {
    const auto d = static_cast<std::size_t>(d_int);
    const std::size_t m = 2 * d;
    for (double rho : rhos) {
      rng::Rng rng(seed + d * 13 + std::size_t(rho * 100));
      scheme::SplitEncryptor enc(d, rng);

      std::vector<BitVec> truth_idx, truth_trap;
      sse::CoaView view;
      for (std::size_t i = 0; i < m; ++i) {
        truth_idx.push_back(rng.binary_bernoulli(d, rho));
        view.cipher_indexes.push_back(
            enc.encrypt_index(to_real(truth_idx.back()), rng));
      }
      // Trapdoors: 15/d query density as in the paper's generator, but at
      // least 2 keywords at reduced scale.
      const std::size_t q_ones =
          std::max<std::size_t>(2, std::min<std::size_t>(15, d / 4));
      for (std::size_t j = 0; j < m; ++j) {
        truth_trap.push_back(rng.binary_with_k_ones(d, q_ones));
        view.cipher_trapdoors.push_back(
            enc.encrypt_trapdoor(to_real(truth_trap.back()), rng));
      }

      core::SnmfAttackOptions aopt;
      aopt.rank = d;
      aopt.restarts = restarts;
      aopt.nmf.max_iterations = iters;
      aopt.nmf.rel_tol = 1e-7;
      const core::ExecContext actx{.threads = 0,
                                   .seed = seed * 7 + d +
                                           std::size_t(rho * 1000),
                                   .sink = obs_flags.sink()};
      const auto res = core::run_snmf_attack(view, aopt, actx);
      const double seconds = res.telemetry.wall_seconds;

      const auto perm = core::align_latent_dimensions(truth_idx, truth_trap,
                                                      res.indexes,
                                                      res.trapdoors);
      std::vector<core::PrecisionRecall> pr_data, pr_query;
      for (std::size_t i = 0; i < m; ++i) {
        pr_data.push_back(core::binary_precision_recall(
            truth_idx[i], core::apply_permutation(res.indexes[i], perm)));
        pr_query.push_back(core::binary_precision_recall(
            truth_trap[i], core::apply_permutation(res.trapdoors[i], perm)));
      }
      const auto avg_d = core::average(pr_data);
      const auto avg_q = core::average(pr_query);
      table.print_row(
          {std::to_string(d), std::to_string(m), bench::fmt(rho, 2),
           avg_d.precision_valid ? bench::fmt(avg_d.precision) : "-",
           bench::fmt(avg_d.recall),
           avg_q.precision_valid ? bench::fmt(avg_q.precision) : "-",
           bench::fmt(avg_q.recall), bench::fmt(seconds, 1)});
    }
  }

  std::printf(
      "\nShape to compare with the paper's Table III: high accuracy at\n"
      "rho in {20%%, 35%%}, collapse at rho = 5%% (sparse data admits many\n"
      "factorizations); runtime grows steeply with d.\n");
  obs_flags.finish();
  return 0;
}
