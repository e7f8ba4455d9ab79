// Figure 3 (§VI-B2): SNMF attack precision/recall vs the number of
// ciphertexts m (= n), on Enron-style data.
//
// Paper setting: d = 500 bloom filters, m = n in {125, ..., 2000}, density
// in [5%, 35%]. Default here: d = 24 with m = n in {24, 48, 96} so the bench
// finishes in ~a minute; --full raises d to 100 and m up to 400. Both run
// the paper's ANLS at all hardware threads (answers are thread-invariant).
//
// Usage: bench_fig3 [--full] [--d=24] [--ms=24,48,96] [--seed=S]
//                   [--trace-json=PATH] [--metrics-json=PATH]
#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/metrics.hpp"
#include "core/snmf_attack.hpp"
#include "data/email_corpus.hpp"
#include "sse/system.hpp"
#include "sse/adversary_view.hpp"

using namespace aspe;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const bool full = flags.get_bool("full", false);
  const auto d = static_cast<std::size_t>(flags.get_int("d", full ? 100 : 24));
  const std::vector<int> ms = flags.get_int_list(
      "ms", full ? std::vector<int>{100, 200, 400}
                 : std::vector<int>{24, 48, 96});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2017));
  bench::ObsFlags obs_flags(flags);

  bench::print_banner(
      "Figure 3: SNMF attack accuracy vs number of ciphertexts m = n",
      "Enron-style corpus -> MKFSE pipeline -> COA reconstruction");
  std::printf("bloom bits d = %zu (paper: 500; see EXPERIMENTS.md scaling)\n",
              d);
  std::printf("threads = %zu\n\n", par::default_threads());

  bench::TablePrinter table(
      {"m=n", "P@data", "R@data", "P@query", "R@query", "Time(s)"}, 11);
  table.print_header();

  for (int m_int : ms) {
    const auto m = static_cast<std::size_t>(m_int);
    rng::Rng rng(seed + m);

    scheme::MkfseOptions mopt;
    mopt.bloom_bits = d;
    mopt.lsh_functions = 2;
    sse::FuzzySearchSystem system(mopt, seed * 5 + m);

    data::EmailCorpusOptions copt;
    copt.num_emails = m;
    copt.vocabulary_size = 2000;
    copt.min_keywords = 3;
    copt.max_keywords = 10;
    copt.duplicate_fraction = 0.05;
    const auto emails =
        data::EmailCorpusGenerator(copt, rng.child(1)).generate();
    std::vector<std::vector<std::string>> docs;
    for (const auto& e : emails) docs.push_back(e.keywords);
    system.upload_documents(docs);

    // m processed queries, 2-3 keywords each, drawn from real documents.
    for (std::size_t j = 0; j < m; ++j) {
      const auto& doc = docs[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(docs.size()) - 1))];
      std::vector<std::string> q = {doc[0], doc[1 % doc.size()]};
      if (doc.size() > 2 && rng.bernoulli(0.5)) q.push_back(doc[2]);
      system.fuzzy_query(q, 5);
    }

    core::SnmfAttackOptions aopt;
    aopt.rank = d;
    aopt.restarts = 3;
    aopt.nmf.max_iterations = 250;
    aopt.nmf.rel_tol = 1e-7;
    const core::ExecContext actx{.threads = 0,
                                 .seed = seed * 11 + m,
                                 .sink = obs_flags.sink()};
    const auto res =
        core::run_snmf_attack(sse::observe(system.server()), aopt, actx);
    const double seconds = res.telemetry.wall_seconds;

    const auto perm = core::align_latent_dimensions(
        system.plaintext_indexes(), system.plaintext_trapdoors(), res.indexes,
        res.trapdoors);
    std::vector<core::PrecisionRecall> pr_data, pr_query;
    for (std::size_t i = 0; i < m; ++i) {
      pr_data.push_back(core::binary_precision_recall(
          system.plaintext_indexes()[i],
          core::apply_permutation(res.indexes[i], perm)));
      pr_query.push_back(core::binary_precision_recall(
          system.plaintext_trapdoors()[i],
          core::apply_permutation(res.trapdoors[i], perm)));
    }
    const auto avg_d = core::average(pr_data);
    const auto avg_q = core::average(pr_query);
    table.print_row({std::to_string(m),
                     avg_d.precision_valid ? bench::fmt(avg_d.precision) : "-",
                     bench::fmt(avg_d.recall),
                     avg_q.precision_valid ? bench::fmt(avg_q.precision) : "-",
                     bench::fmt(avg_q.recall), bench::fmt(seconds, 1)});
  }

  std::printf(
      "\nShape to compare with the paper's Figure 3: accuracy improves as\n"
      "more ciphertexts are observed — and ciphertexts are free for a COA\n"
      "adversary.\n");
  obs_flags.finish();
  return 0;
}
