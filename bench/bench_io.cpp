// I/O formats head-to-head: loading a ciphertext corpus from the text
// format, from the io::v2 binary container, and through the zero-copy
// mmap path (io::MappedCorpus), plus the out-of-core sharded SNMF attack
// against the in-core run — same output, bounded working set.
//
// Writes BENCH_io.json (gated by tools/check_bench.py against
// bench/baselines/). Headlines: the absolute n = 10k load times of each path
// (corpus_load_{text,binary,mmap}_seconds_n10k) and the text write time
// (corpus_write_text_seconds_n10k), each gated lower-is-better on its own so
// a faster text codec cannot read as a loss of binary's or mmap's lead;
// mmap_speedup_at_least_10x; sharded_outputs_bit_identical.
//
// Usage: bench_io [--full] [--seed=S]
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/snmf_attack.hpp"
#include "io/codec.hpp"
#include "io/mmap_file.hpp"
#include "rng/rng.hpp"

using namespace aspe;

namespace {

namespace fs = std::filesystem;

struct LoadRecord {
  std::string bench;
  std::string mode;
  std::size_t n = 0;
  double seconds = 0.0;
  double value = 0.0;  // checksum / shard count, mode-dependent
};

std::vector<scheme::CipherPair> make_corpus(std::size_t n, std::size_t da,
                                            std::size_t db,
                                            std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<scheme::CipherPair> db_out(n);
  for (auto& c : db_out) {
    c.a = rng.uniform_vec(da, -4.0, 4.0);
    c.b = rng.uniform_vec(db, -4.0, 4.0);
  }
  return db_out;
}

double checksum(const std::vector<scheme::CipherPair>& db) {
  double s = 0.0;
  for (const auto& c : db) {
    for (double x : c.a) s += x;
    for (double x : c.b) s += x;
  }
  return s;
}

/// Sum the mapped halves in record order (a_i then b_i), matching the
/// summation order of checksum() so the verification is exact.
double mapped_checksum(linalg::ConstMatrixView a, linalg::ConstMatrixView b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* ra = a.row_ptr(i);
    for (std::size_t j = 0; j < a.cols(); ++j) s += ra[j];
    const double* rb = b.row_ptr(i);
    for (std::size_t j = 0; j < b.cols(); ++j) s += rb[j];
  }
  return s;
}

/// Best-of-`reps` wall time for one load or write path (min damps scheduler
/// noise — these are milliseconds-scale file reads and writes).
template <typename F>
double best_time(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    body();
    best = std::min(best, watch.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const bool full = flags.get_bool("full", false);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2017));
  const std::size_t da = 33, db = 33;  // scheme2 halves at record_dim 32

  std::vector<std::size_t> sizes = {1000, 10000};
  if (full) sizes.push_back(100000);

  bench::print_banner(
      "I/O format benchmark: text vs io::v2 binary vs mmap; sharded attack",
      "infrastructure for Table IV-scale corpora (docs/io.md)");

  const fs::path dir =
      fs::temp_directory_path() / ("aspe_bench_io_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  std::vector<LoadRecord> records;
  double text10k = 0.0, bin10k = 0.0, mmap10k = 0.0, write10k = 0.0;

  bench::TablePrinter table({"n", "write_s", "text_s", "binary_s", "mmap_s",
                             "text/bin", "text/mmap"});
  table.print_header();

  for (const std::size_t n : sizes) {
    const auto corpus = make_corpus(n, da, db, seed + n);
    const double expect = checksum(corpus);
    const std::string text_path = (dir / (std::to_string(n) + ".txt")).string();
    const std::string bin_path = (dir / (std::to_string(n) + ".bin")).string();
    const int reps = n >= 100000 ? 3 : 5;
    const double write_s = best_time(reps, [&] {
      auto w = io::open_writer(text_path, io::Format::Text);
      w->write_cipher_database(corpus);
      w->finish();
    });
    {
      auto w = io::open_writer(bin_path, io::Format::Binary);
      w->write_cipher_database(corpus);
      w->finish();
    }

    double sum = 0.0;
    const double text_s = best_time(reps, [&] {
      sum = checksum(io::open_reader(text_path)->read_cipher_database());
    });
    if (sum != expect) std::fprintf(stderr, "text checksum mismatch!\n");
    const double bin_s = best_time(reps, [&] {
      sum = checksum(io::open_reader(bin_path)->read_cipher_database());
    });
    if (sum != expect) std::fprintf(stderr, "binary checksum mismatch!\n");
    // The mmap "load" includes touching every mapped page through the
    // zero-copy views — the honest comparison point (no deferred work).
    const double mmap_s = best_time(reps, [&] {
      const io::MappedCorpus mapped(bin_path);
      sum = mapped_checksum(mapped.a_half(), mapped.b_half());
    });
    if (sum != expect) std::fprintf(stderr, "mmap checksum mismatch!\n");

    records.push_back({"corpus_write", "text", n, write_s, expect});
    records.push_back({"corpus_load", "text", n, text_s, expect});
    records.push_back({"corpus_load", "binary", n, bin_s, expect});
    records.push_back({"corpus_load", "mmap", n, mmap_s, expect});
    if (n == 10000) {
      text10k = text_s;
      bin10k = bin_s;
      mmap10k = mmap_s;
      write10k = write_s;
    }
    table.print_row({std::to_string(n), bench::fmt_sci(write_s),
                     bench::fmt_sci(text_s),
                     bench::fmt_sci(bin_s), bench::fmt_sci(mmap_s),
                     bench::fmt(text_s / bin_s, 1),
                     bench::fmt(text_s / mmap_s, 1)});
  }

  // ---- sharded vs in-core SNMF attack over the mapped corpus -------------
  //
  // Same mapped views, two budgets: unbounded (one tile, one restart group)
  // vs a budget that forces both stages to shard. Outputs must be bitwise
  // identical; wall-clock parity is the record of interest.
  std::printf("\nsharded vs in-core SNMF attack (mapped corpus):\n");
  bench::TablePrinter atable({"n", "incore_s", "sharded_s", "shards",
                              "identical"});
  atable.print_header();

  bool all_identical = true;
  double ratio_n1k = 0.0;
  for (const std::size_t n : sizes) {
    if (!full && n > 10000) break;
    const std::size_t m = 64;  // trapdoors observed
    const auto trapdoors = make_corpus(m, da, db, seed + 7);
    // Binary plaintexts so scores are exact integers (the attack regime).
    rng::Rng rng(seed + n);
    auto indexes = make_corpus(n, da, db, seed + n);
    for (auto& c : indexes) {
      for (auto& x : c.a) x = x > 0.0 ? 1.0 : 0.0;
      for (auto& x : c.b) x = x > 0.0 ? 1.0 : 0.0;
    }
    auto tr = trapdoors;
    for (auto& c : tr) {
      for (auto& x : c.a) x = x > 0.0 ? 1.0 : 0.0;
      for (auto& x : c.b) x = x > 0.0 ? 1.0 : 0.0;
    }
    const std::string idx_path =
        (dir / ("idx" + std::to_string(n) + ".bin")).string();
    const std::string trap_path =
        (dir / ("trap" + std::to_string(n) + ".bin")).string();
    for (const auto& [p, d] : {std::pair{idx_path, &indexes},
                               std::pair{trap_path, &tr}}) {
      auto w = io::open_writer(p, io::Format::Binary);
      w->write_cipher_database(*d);
      w->finish();
    }
    const io::MappedCorpus icorp(idx_path), tcorp(trap_path);

    core::SnmfAttackOptions options;
    options.rank = 8;
    options.restarts = 2;
    options.nmf.max_iterations = 25;

    auto run_once = [&](std::size_t budget, double* shards_out) {
      core::ExecContext ctx;
      ctx.seed = seed;
      ctx.memory_budget_bytes = budget;
      obs::MemorySink sink;
      core::SnmfAttackResult res;
      {
        obs::ScopedRecording rec(&sink);
        const linalg::Matrix scores = core::build_score_matrix(
            icorp.a_half(), icorp.b_half(), tcorp.a_half(), tcorp.b_half(),
            ctx);
        res = core::run_snmf_attack(scores, options, ctx);
      }
      if (shards_out != nullptr) *shards_out = sink.counter("shard.count");
      return res;
    };

    Stopwatch in_watch;
    const auto incore = run_once(0, nullptr);
    const double incore_s = in_watch.seconds();

    // Budget ~ an eighth of the score matrix: several score tiles and
    // single-restart groups.
    const std::size_t budget = n * m * sizeof(double) / 8;
    double shards = 0.0;
    Stopwatch sh_watch;
    const auto sharded = run_once(budget, &shards);
    const double sharded_s = sh_watch.seconds();

    const bool identical = sharded.indexes == incore.indexes &&
                           sharded.trapdoors == incore.trapdoors &&
                           sharded.best_fit_error == incore.best_fit_error;
    all_identical = all_identical && identical;
    if (n == 1000) ratio_n1k = incore_s > 0.0 ? sharded_s / incore_s : 0.0;
    records.push_back({"attack", "incore", n, incore_s, 1.0});
    records.push_back({"attack", "sharded", n, sharded_s, shards});
    atable.print_row({std::to_string(n), bench::fmt_sci(incore_s),
                      bench::fmt_sci(sharded_s),
                      bench::fmt(shards, 0), identical ? "yes" : "NO"});
  }

  fs::remove_all(dir);

  const double speedup_bin = bin10k > 0.0 ? text10k / bin10k : 0.0;
  const double speedup_mmap = mmap10k > 0.0 ? text10k / mmap10k : 0.0;
  std::printf("\ntext-over-binary load speedup (n=10k):  %.1fx\n", speedup_bin);
  std::printf("text-over-mmap load speedup (n=10k):    %.1fx\n", speedup_mmap);
  std::printf("sharded outputs bit-identical:          %s\n",
              all_identical ? "yes" : "NO");

  std::ofstream out("BENCH_io.json");
  out << "{\n  \"benchmark\": \"io_format_sweep\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"bench\": \"" << r.bench << "\", \"mode\": \"" << r.mode
        << "\", \"n\": " << r.n << ", \"seconds\": " << r.seconds
        << ", \"value\": " << r.value << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"corpus_load_text_seconds_n10k\": " << text10k << ",\n";
  out << "  \"corpus_load_binary_seconds_n10k\": " << bin10k << ",\n";
  out << "  \"corpus_load_mmap_seconds_n10k\": " << mmap10k << ",\n";
  out << "  \"corpus_write_text_seconds_n10k\": " << write10k << ",\n";
  out << "  \"mmap_speedup_at_least_10x\": "
      << (speedup_mmap >= 10.0 ? "true" : "false") << ",\n";
  out << "  \"sharded_over_incore_wallclock_ratio_n1k\": " << ratio_n1k
      << ",\n";
  out << "  \"sharded_outputs_bit_identical\": "
      << (all_identical ? "true" : "false") << "\n";
  out << "}\n";
  std::printf("\nwrote BENCH_io.json\n");
  return 0;
}
