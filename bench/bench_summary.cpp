// Table I (§VI): summary of the three attack algorithms, plus a quick
// end-to-end sanity demonstration of each at miniature scale, plus an
// aggregated view of every BENCH_*.json artifact found in the working
// directory (whatever bench_micro produced — no hardcoded file list).
//
// Usage: bench_summary [--seed=S]
#include <filesystem>

#include "bench_common.hpp"
#include "core/lep.hpp"
#include "core/metrics.hpp"
#include "core/mip_attack.hpp"
#include "core/snmf_attack.hpp"
#include "data/queries.hpp"
#include "data/quest.hpp"
#include "linalg/vector_ops.hpp"
#include "sse/adversary_view.hpp"
#include "sse/system.hpp"

using namespace aspe;

namespace {

/// Top-level scalar fields of one BENCH_*.json document, in file order.
/// Minimal hand parser for the shape this repo's writers emit: nested
/// arrays/objects ("results", "overheads") are skipped wholesale; numbers,
/// booleans and strings at depth 1 are the headline metrics.
std::vector<std::pair<std::string, std::string>> bench_scalars(
    const std::filesystem::path& path) {
  std::vector<std::pair<std::string, std::string>> fields;
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  int depth = 0;
  std::size_t i = 0;
  const auto read_string = [&] {
    std::string s;
    ++i;  // opening quote
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) ++i;
      s += text[i++];
    }
    ++i;  // closing quote
    return s;
  };
  while (i < text.size()) {
    const char c = text[i];
    if (c == '{' || c == '[') {
      ++depth;
      ++i;
    } else if (c == '}' || c == ']') {
      --depth;
      ++i;
    } else if (c == '"') {
      const std::string key = read_string();
      if (depth != 1) continue;
      while (i < text.size() && (text[i] == ':' || std::isspace(text[i]))) ++i;
      if (i >= text.size() || text[i] == '{' || text[i] == '[') continue;
      if (text[i] == '"') {
        fields.emplace_back(key, read_string());
      } else {
        std::string value;
        while (i < text.size() && text[i] != ',' && text[i] != '}' &&
               !std::isspace(text[i])) {
          value += text[i++];
        }
        fields.emplace_back(key, value);
      }
    } else {
      ++i;
    }
  }
  return fields;
}

void print_bench_artifacts() {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(fs::current_path())) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        name.size() > 5 && name.substr(name.size() - 5) == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::printf("\n--- recorded benchmark artifacts (BENCH_*.json) ---\n\n");
  if (files.empty()) {
    std::printf("none found in %s (run bench_micro here first)\n",
                fs::current_path().string().c_str());
    return;
  }
  bench::TablePrinter table({"File", "Headline metric", "Value"}, 40);
  table.print_header();
  for (const auto& file : files) {
    std::string shown = file.filename().string();
    for (const auto& [key, value] : bench_scalars(file)) {
      table.print_row({shown, key, value});
      shown.clear();  // file name only on its first row
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2017));

  bench::print_banner("Table I: summary of attack algorithms",
                      "attack / target scheme / adversary model / data domain");

  bench::TablePrinter table({"Attack", "Target", "Adversary", "Domain"}, 22);
  table.print_header();
  table.print_row({"LEP", "ASPE (Scheme 2)", "KPA", "Real"});
  table.print_row({"MIP", "MRSE (noise)", "KPA", "Binary"});
  table.print_row({"SNMF", "MKFSE (camouflage)", "COA", "Binary"});
  std::printf("\n--- live sanity demonstrations (miniature scale) ---\n\n");

  // LEP: exact disclosure.
  {
    const std::size_t d = 8;
    scheme::Scheme2Options opt;
    opt.record_dim = d;
    sse::SecureKnnSystem system(opt, seed);
    rng::Rng rng(seed + 1);
    const auto records = data::real_records(d + 6, d, -2.0, 2.0, rng);
    system.upload_records(records);
    for (std::size_t j = 0; j < d + 3; ++j) {
      system.knn_query(rng.uniform_vec(d, -2.0, 2.0), 3);
    }
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i <= d; ++i) ids.push_back(i);
    const auto res = core::run_lep_attack(sse::leak_known_records(system, ids));
    double max_err = 0.0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      max_err = std::max(max_err, linalg::max_abs(linalg::sub(
                                      res.records[i], records[i])));
    }
    std::printf("LEP : recovered %zu records, %zu queries; max error %.2e\n",
                res.records.size(), res.queries.size(), max_err);
  }

  // MIP: query reconstruction.
  {
    const std::size_t d = 40, m = 40;
    scheme::MrseOptions opt;
    opt.vocab_dim = d;
    opt.sigma = 0.5;
    sse::RankedSearchSystem system(opt, seed + 2);
    rng::Rng rng(seed + 3);
    data::QuestOptions qopt;
    qopt.num_items = d;
    qopt.density = 0.25;
    qopt.num_transactions = m;
    system.upload_records(data::QuestGenerator(qopt, rng.child(1)).generate());
    const BitVec q = rng.binary_with_k_ones(d, 8);
    system.ranked_query(q, 5);
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < m; ++i) ids.push_back(i);
    const auto res = core::run_mip_attack(sse::leak_known_records(system, ids),
                                          0, opt.mu, opt.sigma);
    if (res.found) {
      const auto pr = core::binary_precision_recall(q, res.query);
      std::printf("MIP : solution found in %.2fs; P=%.2f R=%.2f\n",
                  res.telemetry.wall_seconds, pr.precision, pr.recall);
    } else {
      std::printf("MIP : no solution within limits\n");
    }
  }

  // SNMF: COA reconstruction.
  {
    const std::size_t d = 12, m = 48;
    rng::Rng rng(seed + 4);
    scheme::SplitEncryptor enc(d, rng);
    std::vector<BitVec> truth_idx, truth_trap;
    sse::CoaView view;
    for (std::size_t i = 0; i < m; ++i) {
      truth_idx.push_back(rng.binary_bernoulli(d, 0.3));
      view.cipher_indexes.push_back(
          enc.encrypt_index(to_real(truth_idx.back()), rng));
      truth_trap.push_back(rng.binary_bernoulli(d, 0.25));
      view.cipher_trapdoors.push_back(
          enc.encrypt_trapdoor(to_real(truth_trap.back()), rng));
    }
    core::SnmfAttackOptions aopt;
    aopt.rank = d;
    aopt.restarts = 3;
    aopt.nmf.max_iterations = 250;
    const auto res = core::run_snmf_attack(view, aopt,
                                           core::ExecContext{.seed = seed + 5});
    const auto perm = core::align_latent_dimensions(truth_idx, truth_trap,
                                                    res.indexes, res.trapdoors);
    std::vector<core::PrecisionRecall> prs;
    for (std::size_t i = 0; i < m; ++i) {
      prs.push_back(core::binary_precision_recall(
          truth_idx[i], core::apply_permutation(res.indexes[i], perm)));
    }
    const auto avg = core::average(prs);
    std::printf("SNMF: ciphertext-only reconstruction; P=%.2f R=%.2f\n",
                avg.precision, avg.recall);
  }

  print_bench_artifacts();
  return 0;
}
