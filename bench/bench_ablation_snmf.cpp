// Ablation: components of the SNMF attack (Algorithm 3 design choices).
//
//   restarts L         : best-of-L restarts (the paper's outer loop)
//   theta              : binarization threshold sweep
//   init               : random vs deterministic NNDSVD seeding, and a
//                        planted start at the true (I, T) — a diagnostic
//                        that separates optimizer failures (the planted
//                        point scores a lower objective than the random
//                        restarts reach) from model failures (it does not)
//
// Usage: bench_ablation_snmf [--d=28] [--m=56] [--rho=0.15] [--seed=S]
#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/metrics.hpp"
#include "core/snmf_attack.hpp"
#include "scheme/split_encryptor.hpp"

using namespace aspe;

namespace {

struct Scenario {
  std::vector<BitVec> truth_idx, truth_trap;
  sse::CoaView view;
};

Scenario make_scenario(std::size_t d, std::size_t m, double rho,
                       std::uint64_t seed) {
  rng::Rng rng(seed);
  scheme::SplitEncryptor enc(d, rng);
  Scenario s;
  for (std::size_t i = 0; i < m; ++i) {
    s.truth_idx.push_back(rng.binary_bernoulli(d, rho));
    s.view.cipher_indexes.push_back(
        enc.encrypt_index(to_real(s.truth_idx.back()), rng));
    s.truth_trap.push_back(rng.binary_bernoulli(d, rho * 0.8));
    s.view.cipher_trapdoors.push_back(
        enc.encrypt_trapdoor(to_real(s.truth_trap.back()), rng));
  }
  return s;
}

core::PrecisionRecall evaluate(const Scenario& s,
                               const core::SnmfAttackResult& res) {
  const auto perm = core::align_latent_dimensions(
      s.truth_idx, s.truth_trap, res.indexes, res.trapdoors);
  std::vector<core::PrecisionRecall> prs;
  for (std::size_t i = 0; i < s.truth_idx.size(); ++i) {
    prs.push_back(core::binary_precision_recall(
        s.truth_idx[i], core::apply_permutation(res.indexes[i], perm)));
    prs.push_back(core::binary_precision_recall(
        s.truth_trap[i], core::apply_permutation(res.trapdoors[i], perm)));
  }
  return core::average(prs);
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  // Deliberately lean regime (m = 2d only, sparse-ish data, tight iteration
  // budget) so the variants actually separate.
  const auto d = static_cast<std::size_t>(flags.get_int("d", 28));
  const auto m = static_cast<std::size_t>(flags.get_int("m", 56));
  const double rho = flags.get_double("rho", 0.15);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2017));

  bench::print_banner("Ablation: SNMF attack components",
                      "Algorithm 3 design choices (L, theta, init)");
  std::printf("d = %zu, m = n = %zu, rho = %.2f, threads = %zu\n\n", d, m,
              rho, par::default_threads());

  const Scenario s = make_scenario(d, m, rho, seed);
  // Answers are thread-invariant, so every variant runs at full width.
  const core::ExecContext ctx{.threads = 0, .seed = seed * 31 + 5};
  const linalg::Matrix scores = core::build_score_matrix(
      s.view.cipher_indexes, s.view.cipher_trapdoors, ctx.threads);

  struct Variant {
    std::string name;
    core::SnmfAttackOptions options;
    bool planted = false;
  };
  std::vector<Variant> variants;
  auto base = [&] {
    core::SnmfAttackOptions o;
    o.rank = d;
    o.restarts = 3;
    o.nmf.max_iterations = 120;
    o.nmf.rel_tol = 1e-6;
    return o;
  };
  variants.push_back({"anls_L3", base()});
  for (std::size_t restarts : {1, 6}) {
    Variant v{"anls_L" + std::to_string(restarts), base()};
    v.options.restarts = restarts;
    variants.push_back(v);
  }
  for (double theta : {0.3, 0.7}) {
    Variant v{"theta_" + bench::fmt(theta, 1), base()};
    v.options.theta = theta;
    variants.push_back(v);
  }
  {
    // Deterministic SVD seeding: restarts are pointless, so L = 1.
    Variant v{"nndsvd_L1", base()};
    v.options.nmf.init = nmf::Initialization::Nndsvd;
    v.options.restarts = 1;
    variants.push_back(v);
  }
  {
    Variant v{"planted_L1", base(), true};
    v.options.restarts = 1;
    variants.push_back(v);
  }

  // The planted start: the true (I, T) as (W, H), balanced per latent row
  // as the binarization step does. R = I^T T exactly, so its fit is zero
  // and its objective is the penalties alone.
  nmf::NmfInit planted{linalg::Matrix(d, m), linalg::Matrix(d, m)};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < d; ++k) {
      planted.w(k, i) = s.truth_idx[i][k];
      planted.h(k, i) = s.truth_trap[i][k];
    }
  }
  nmf::balance_rows(planted.w, planted.h);
  {
    nmf::SparseNmfOptions at_start = base().nmf;
    at_start.max_iterations = 0;
    const auto start =
        nmf::sparse_nmf_from_init(scores, d, at_start, planted, ctx.threads);
    std::printf("planted (I, T): fit_err %s, objective %s\n\n",
                bench::fmt(start.fit_error, 3).c_str(),
                bench::fmt(start.objective, 1).c_str());
  }

  bench::TablePrinter table(
      {"variant", "P", "R", "fit_err", "objective", "Time(s)"}, 12);
  table.print_header();
  for (const auto& variant : variants) {
    // Same attack seed across variants. The restart machinery is called
    // piecewise (as run_snmf_attack does) to report the selected objective.
    const Stopwatch watch;
    std::vector<nmf::NmfInit> inits =
        variant.planted ? std::vector<nmf::NmfInit>{planted}
                        : core::draw_snmf_inits(scores, variant.options, ctx);
    const core::SnmfSelection selection = core::run_snmf_restarts(
        scores, variant.options, std::move(inits), ctx);
    const auto res = core::binarize_snmf_selection(selection, variant.options);
    const double seconds = watch.seconds();
    const auto pr = evaluate(s, res);
    table.print_row({variant.name,
                     pr.precision_valid ? bench::fmt(pr.precision) : "-",
                     pr.recall_valid ? bench::fmt(pr.recall) : "-",
                     bench::fmt(res.best_fit_error, 3),
                     bench::fmt(selection.factorization.objective, 1),
                     bench::fmt(seconds, 2)});
  }

  std::printf(
      "\nReading: a single random restart (anls_L1) occasionally lands in a\n"
      "poor optimum — the paper's best-of-L loop is what makes the attack\n"
      "reliable; the deterministic NNDSVD seed (nndsvd_L1) removes that\n"
      "fragility at L = 1. Converged factors are near-binary, so theta\n"
      "barely matters here; unconverged ones are not, and theta then trades\n"
      "P for R. planted_L1 starts ANLS at the true (I, T): where it ends at a\n"
      "far lower objective than the random restarts (e.g. --d=100 --m=200\n"
      "--rho=0.35), the optimizer's starts are what fail, not the model.\n");
  return 0;
}
