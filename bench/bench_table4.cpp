// Table IV (§VI-B2): the frequency distribution of the most frequent
// documents is completely preserved through the plaintext indexes I_i and
// the SNMF-reconstructed indexes I*_i — the statistical-analysis risk.
//
// Paper setting: O_2000 (2000 Enron emails with duplicates), d = 500.
// Default here: 300 emails, d = 24; --full: 2000 emails, d = 100. Both run
// the paper's ANLS at all hardware threads (answers are thread-invariant).
//
// Usage: bench_table4 [--full] [--emails=N] [--d=BITS] [--seed=S]
//                     [--trace-json=PATH] [--metrics-json=PATH]
#include <map>

#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/metrics.hpp"
#include "core/snmf_attack.hpp"
#include "data/email_corpus.hpp"
#include "sse/adversary_view.hpp"
#include "sse/system.hpp"

using namespace aspe;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const bool full = flags.get_bool("full", false);
  const auto num_emails =
      static_cast<std::size_t>(flags.get_int("emails", full ? 2000 : 300));
  const auto d = static_cast<std::size_t>(flags.get_int("d", full ? 100 : 24));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2017));
  bench::ObsFlags obs_flags(flags);

  bench::print_banner(
      "Table IV: frequency distribution of the most frequent documents",
      "preserved through P_i -> I_i -> reconstructed I*_i");
  std::printf("emails: %zu, bloom bits d = %zu\n", num_emails, d);
  std::printf("threads = %zu\n\n", par::default_threads());

  rng::Rng rng(seed);
  data::EmailCorpusOptions copt;
  copt.num_emails = num_emails;
  copt.vocabulary_size = 2000;
  copt.min_keywords = 3;
  copt.max_keywords = 10;
  copt.duplicate_fraction = 0.08;  // heavy duplicate tail, as in Enron
  const auto emails = data::EmailCorpusGenerator(copt, rng.child(1)).generate();

  scheme::MkfseOptions mopt;
  mopt.bloom_bits = d;
  sse::FuzzySearchSystem system(mopt, seed * 3 + 1);
  std::vector<std::vector<std::string>> docs;
  for (const auto& e : emails) docs.push_back(e.keywords);
  system.upload_documents(docs);
  // Enough observed queries for the factorization to pin down the indexes.
  for (std::size_t j = 0; j < num_emails; ++j) {
    const auto& doc = docs[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(docs.size()) - 1))];
    system.fuzzy_query({doc[0], doc[1 % doc.size()]}, 5);
  }

  // Frequency of plaintext documents (group identical keyword sets).
  std::map<std::vector<std::string>, std::pair<std::size_t, std::size_t>>
      doc_groups;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    auto it = doc_groups.find(docs[i]);
    if (it == doc_groups.end()) {
      doc_groups.emplace(docs[i], std::make_pair(i, std::size_t{1}));
    } else {
      ++it->second.second;
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> doc_freq;  // (idx, count)
  for (const auto& [k, v] : doc_groups) doc_freq.push_back(v);
  std::sort(doc_freq.begin(), doc_freq.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (doc_freq.size() > 5) doc_freq.resize(5);

  // Frequency through the plaintext indexes I_i.
  const auto index_freq = core::top_frequencies(system.plaintext_indexes(), 5);

  // Frequency through the SNMF reconstruction I*_i (COA adversary).
  core::SnmfAttackOptions aopt;
  aopt.rank = d;
  aopt.restarts = 3;
  aopt.nmf.max_iterations = 250;
  aopt.nmf.rel_tol = 1e-7;
  const auto res = core::run_snmf_attack(
      sse::observe(system.server()), aopt,
      core::ExecContext{
          .threads = 0, .seed = seed * 17 + 3, .sink = obs_flags.sink()});
  const auto recon_freq = core::top_frequencies(res.indexes, 5);
  std::printf("SNMF reconstruction took %.1f s\n\n",
              res.telemetry.wall_seconds);

  bench::TablePrinter table({"rank", "P_i freq", "I_i freq", "I*_i freq"}, 12);
  table.print_header();
  for (std::size_t r = 0; r < 5; ++r) {
    table.print_row(
        {std::to_string(r + 1),
         r < doc_freq.size() ? std::to_string(doc_freq[r].second) : "-",
         r < index_freq.size() ? std::to_string(index_freq[r].second) : "-",
         r < recon_freq.size() ? std::to_string(recon_freq[r].second) : "-"});
  }

  std::printf(
      "\nShape to compare with the paper's Table IV: the three columns\n"
      "match — duplicate documents stay duplicates through the (fully\n"
      "deterministic) bloom-filter pipeline AND through the ciphertext-only\n"
      "reconstruction, enabling classic frequency analysis.\n");
  obs_flags.finish();
  return 0;
}
