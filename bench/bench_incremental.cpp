// Incremental attack pipeline vs batch recomputation over a growing corpus.
//
// The paper evaluates every attack on a fixed corpus; a deployed adversary
// instead watches the ciphertext stream grow and re-attacks after each batch
// of observations. This bench measures what core::CoaSession / LepSession
// buy over re-running the batch pipeline from scratch:
//
//   SNMF (Algorithm 3, §V.B): a session warmed at n ciphertexts absorbs a
//     delta (score-matrix band gemms + incremental truncated-SVD rank update
//     + sparse-NMF resume) vs the batch pipeline at n+delta (full score
//     build + fresh rank estimate + cold restart sweep). The grown score
//     matrix must be bit-identical to the batch build and the rank
//     estimates must agree.
//
//   LEP (Algorithm 1, §III.B): a session holding both LU bases absorbs one
//     new trapdoor + one new index (two warm back-substitutions) vs
//     run_lep_attack on the full view. Outputs must be bit-identical.
//
// Usage: bench_incremental [--sizes=256,512,1024,2048] [--delta=64]
//                          [--restarts=3] [--iters=200] [--lep-dim=200]
//                          [--reps=5] [--threads=N] [--seed=S]
// Writes BENCH_incremental.json (bench_summary / tools/check_bench.py).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "common/types.hpp"
#include "core/lep.hpp"
#include "core/session.hpp"
#include "core/snmf_attack.hpp"
#include "data/queries.hpp"
#include "rng/rng.hpp"
#include "scheme/split_encryptor.hpp"
#include "sse/adversary_view.hpp"
#include "sse/system.hpp"

using namespace aspe;

namespace {

/// Bloom-filter-style binary corpus encrypted under one MKFSE key — the
/// same construction the SNMF tests and tables use.
sse::CoaView make_coa_corpus(std::size_t d, std::size_t count,
                             std::uint64_t seed) {
  rng::Rng rng(seed);
  scheme::SplitEncryptor enc(d, rng);
  sse::CoaView v;
  for (std::size_t i = 0; i < count; ++i) {
    v.cipher_indexes.push_back(
        enc.encrypt_index(to_real(rng.binary_bernoulli(d, 0.3)), rng));
  }
  for (std::size_t j = 0; j < count; ++j) {
    v.cipher_trapdoors.push_back(
        enc.encrypt_trapdoor(to_real(rng.binary_bernoulli(d, 0.25)), rng));
  }
  return v;
}

sse::CoaView slice_view(const sse::CoaView& v, std::size_t i0, std::size_t i1,
                        std::size_t j0, std::size_t j1) {
  sse::CoaView out;
  out.cipher_indexes.assign(v.cipher_indexes.begin() + long(i0),
                            v.cipher_indexes.begin() + long(i1));
  out.cipher_trapdoors.assign(v.cipher_trapdoors.begin() + long(j0),
                              v.cipher_trapdoors.begin() + long(j1));
  return out;
}

struct SnmfPoint {
  std::size_t n = 0;
  double batch_seconds = 0.0;
  double incremental_seconds = 0.0;
  double append_seconds = 0.0;  // score-band gemms
  double rank_seconds = 0.0;    // incremental SVD re-certification
  double speedup = 0.0;
  bool scores_bitwise = false;
  bool ranks_agree = false;
};

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const std::vector<int> sizes = flags.get_int_list(
      "sizes", std::vector<int>{256, 512, 1024, 2048});
  const auto delta = static_cast<std::size_t>(flags.get_int("delta", 64));
  // Both pipelines run the library defaults to convergence: L=3 restarts
  // (the paper's choice) against one warm resume, each ANLS stopping at
  // SparseNmfOptions::rel_tol.
  const auto restarts = static_cast<std::size_t>(flags.get_int("restarts", 3));
  const auto iters = static_cast<std::size_t>(flags.get_int("iters", 200));
  const auto resume_iters =
      static_cast<std::size_t>(flags.get_int("resume-iters", 40));
  const auto rank_d = static_cast<std::size_t>(flags.get_int("rank", 32));
  const auto lep_d = static_cast<std::size_t>(flags.get_int("lep-dim", 200));
  const auto reps = static_cast<std::size_t>(flags.get_int("reps", 5));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2017));

  core::ExecContext ctx;
  ctx.threads = static_cast<std::size_t>(flags.get_int("threads", 1));
  ctx.seed = seed;

  bench::print_banner(
      "Incremental sessions: online score/SVD/SNMF and LEP updates",
      "amortized-cost view of Algorithms 1 and 3 (Tables IV-V scale)");

  // ------------------------------------------------------------ SNMF sweep
  std::printf("\nSNMF pipeline, corpus n -> n+%zu (rank %zu, %zu restarts, "
              "<=%zu iterations):\n\n",
              delta, rank_d, restarts, iters);
  bench::TablePrinter table({"n", "batch_s", "incr_s", "speedup", "b_iters",
                             "i_iters", "bitwise", "rank=", "fit_gap"},
                            10);
  table.print_header();

  core::SnmfAttackOptions aopt;
  aopt.restarts = restarts;
  aopt.nmf.max_iterations = iters;
  aopt.resume_iterations = resume_iters;

  std::vector<SnmfPoint> points;
  for (int n_int : sizes) {
    const auto n = static_cast<std::size_t>(n_int);
    const sse::CoaView full = make_coa_corpus(rank_d, n + delta, seed + n);

    // Warm a session at n ciphertexts (untimed: this is the state an online
    // adversary already holds when the delta arrives).
    core::CoaSession session(aopt, ctx);
    session.append_ciphertexts(slice_view(full, 0, n, 0, n));
    session.set_rank(session.estimate_rank());
    const auto warm = session.attack();

    // Timed: absorb the delta and re-attack incrementally.
    const sse::CoaView tail = slice_view(full, n, n + delta, n, n + delta);
    Stopwatch inc_watch;
    session.append_ciphertexts(tail);
    const double append_seconds = inc_watch.seconds();
    const std::size_t inc_rank = session.estimate_rank();
    session.set_rank(inc_rank);
    const double rank_seconds = inc_watch.seconds() - append_seconds;
    const auto inc = session.attack();
    const double inc_seconds = inc_watch.seconds();

    // Timed: the batch pipeline from scratch at n+delta.
    Stopwatch batch_watch;
    const linalg::Matrix scores = core::build_score_matrix(
        full.cipher_indexes, full.cipher_trapdoors, ctx.threads);
    const std::size_t batch_rank =
        core::estimate_latent_dimension(scores, 1e-8, ctx);
    core::SnmfAttackOptions bopt = aopt;
    bopt.rank = batch_rank;
    const auto batch = core::run_snmf_attack(scores, bopt, ctx);
    const double batch_seconds = batch_watch.seconds();

    SnmfPoint p;
    p.n = n;
    p.batch_seconds = batch_seconds;
    p.incremental_seconds = inc_seconds;
    p.append_seconds = append_seconds;
    p.rank_seconds = rank_seconds;
    p.speedup = inc_seconds > 0.0 ? batch_seconds / inc_seconds : 0.0;
    p.scores_bitwise = (session.scores() == scores);
    p.ranks_agree = (inc_rank == batch_rank);
    points.push_back(p);

    const double fit_gap =
        std::abs(inc.best_fit_error - batch.best_fit_error) /
        std::max(1.0, batch.best_fit_error);
    (void)warm;
    const double b_iters = batch.telemetry.counter("snmf.nmf_iterations", 0.0);
    const double i_iters = inc.telemetry.counter("snmf.nmf_iterations", 0.0);
    table.print_row({std::to_string(n), bench::fmt(batch_seconds, 3),
                     bench::fmt(inc_seconds, 3), bench::fmt(p.speedup, 2),
                     bench::fmt(b_iters, 0), bench::fmt(i_iters, 0),
                     p.scores_bitwise ? "yes" : "NO",
                     p.ranks_agree ? "yes" : "NO", bench::fmt_sci(fit_gap)});
  }

  // ------------------------------------------------------------- LEP warm
  std::printf("\nLEP warm re-solve, d=%zu (one new trapdoor + one new index, "
              "median over >= 50 ms of repetitions, vs full batch re-attack, "
              "min over %zu reps):\n\n",
              lep_d, reps);

  scheme::Scheme2Options sopt;
  sopt.record_dim = lep_d;
  sopt.padding_dims = 4;
  sse::SecureKnnSystem system(sopt, seed + lep_d);
  rng::Rng lep_rng(seed * 31 + lep_d);
  const auto records =
      data::real_records(lep_d + 20, lep_d, -5.0, 5.0, lep_rng);
  system.upload_records(records);
  for (std::size_t j = 0; j < lep_d + 5; ++j) {
    system.knn_query(lep_rng.uniform_vec(lep_d, -5.0, 5.0), 5);
  }
  std::vector<std::size_t> leak_ids;
  for (std::size_t i = 0; i <= lep_d; ++i) leak_ids.push_back(i);
  const sse::KpaView view = sse::leak_known_records(system, leak_ids);

  const std::size_t num_t = view.observed.cipher_trapdoors.size();
  const std::size_t num_i = view.observed.cipher_indexes.size();

  // A session that has seen everything but the last trapdoor and index.
  core::LepSession lep_session({}, ctx);
  lep_session.add_known_pairs(view.known_pairs);
  lep_session.append_ciphertexts(
      slice_view(view.observed, 0, num_i - 1, 0, num_t - 1));
  const core::LepSessionSnapshot pre = lep_session.snapshot();
  const sse::CoaView lep_delta =
      slice_view(view.observed, num_i - 1, num_i, num_t - 1, num_t);

  // The warm re-solve takes under a millisecond, where a minimum over a few
  // repetitions wanders by tens of percent between runs: take the median of
  // as many repetitions as fill a fixed budget of timed work instead.
  constexpr double kWarmBudgetSeconds = 0.05;
  std::vector<double> warm_samples;
  double warm_total = 0.0;
  core::LepResult warm_res;
  while (warm_total < kWarmBudgetSeconds || warm_samples.size() < reps) {
    core::LepSession replay(pre, {}, ctx);
    Stopwatch watch;
    replay.append_ciphertexts(lep_delta);
    warm_res = replay.result();
    warm_samples.push_back(watch.seconds());
    warm_total += warm_samples.back();
  }
  std::sort(warm_samples.begin(), warm_samples.end());
  const double warm_seconds = warm_samples[warm_samples.size() / 2];

  double batch_seconds = -1.0;
  core::LepResult batch_res;
  for (std::size_t r = 0; r < reps; ++r) {
    Stopwatch watch;
    batch_res = core::run_lep_attack(view, {}, ctx);
    const double s = watch.seconds();
    if (batch_seconds < 0.0 || s < batch_seconds) batch_seconds = s;
  }

  const bool lep_bitwise = warm_res.trapdoors == batch_res.trapdoors &&
                           warm_res.queries == batch_res.queries &&
                           warm_res.query_multipliers ==
                               batch_res.query_multipliers &&
                           warm_res.indexes == batch_res.indexes &&
                           warm_res.records == batch_res.records;
  const double lep_speedup =
      warm_seconds > 0.0 ? batch_seconds / warm_seconds : 0.0;

  bench::TablePrinter lep_table(
      {"d", "trapdoors", "indexes", "batch_s", "warm_s", "speedup", "bitwise"},
      11);
  lep_table.print_header();
  lep_table.print_row({std::to_string(lep_d), std::to_string(num_t),
                       std::to_string(num_i), bench::fmt(batch_seconds, 5),
                       bench::fmt(warm_seconds, 5),
                       bench::fmt(lep_speedup, 2),
                       lep_bitwise ? "yes" : "NO"});

  // --------------------------------------------------------------- summary
  bool all_bitwise = true;
  bool all_ranks = true;
  for (const auto& p : points) {
    all_bitwise = all_bitwise && p.scores_bitwise;
    all_ranks = all_ranks && p.ranks_agree;
  }
  const double headline_speedup =
      points.empty() ? 0.0 : points.back().speedup;
  // Both sides of the headline ratio, gated on their own: a change that
  // speeds up both can move the ratio either way.
  const double headline_batch_seconds =
      points.empty() ? 0.0 : points.back().batch_seconds;
  const double headline_incremental_seconds =
      points.empty() ? 0.0 : points.back().incremental_seconds;

  std::printf(
      "\nInterpretation: the incremental session re-attacks the grown corpus\n"
      "%.1fx faster than the batch pipeline at n=%zu while producing the\n"
      "bit-identical score matrix and the same rank estimate; the LEP warm\n"
      "re-solve is %.1fx faster than a full batch re-attack, bit-identical.\n",
      headline_speedup, points.empty() ? 0 : points.back().n, lep_speedup);

  std::ofstream out("BENCH_incremental.json");
  out << "{\n  \"benchmark\": \"incremental\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    out << "    {\"attack\": \"snmf\", \"n\": " << p.n
        << ", \"delta\": " << delta
        << ", \"batch_seconds\": " << p.batch_seconds
        << ", \"incremental_seconds\": " << p.incremental_seconds
        << ", \"append_seconds\": " << p.append_seconds
        << ", \"rank_seconds\": " << p.rank_seconds
        << ", \"speedup\": " << p.speedup << ", \"scores_bitwise\": "
        << (p.scores_bitwise ? "true" : "false")
        << ", \"ranks_agree\": " << (p.ranks_agree ? "true" : "false")
        << "},\n";
  }
  out << "    {\"attack\": \"lep\", \"d\": " << lep_d
      << ", \"batch_seconds\": " << batch_seconds
      << ", \"warm_seconds\": " << warm_seconds
      << ", \"speedup\": " << lep_speedup
      << ", \"bitwise\": " << (lep_bitwise ? "true" : "false") << "}\n"
      << "  ],\n";
  out << "  \"incremental_speedup_pipeline_n2048\": " << headline_speedup
      << ",\n";
  out << "  \"batch_seconds_pipeline_n2048\": " << headline_batch_seconds
      << ",\n";
  out << "  \"incremental_seconds_pipeline_n2048\": "
      << headline_incremental_seconds << ",\n";
  out << "  \"lep_warm_resolve_speedup\": " << lep_speedup << ",\n";
  // Both sides of the LEP ratio, gated on their own like the SNMF pair.
  out << "  \"lep_batch_seconds\": " << batch_seconds << ",\n";
  out << "  \"lep_warm_seconds\": " << warm_seconds << ",\n";
  out << "  \"score_matrix_bitwise_equal\": "
      << (all_bitwise ? "true" : "false") << ",\n";
  out << "  \"lep_outputs_bitwise_equal\": "
      << (lep_bitwise ? "true" : "false") << ",\n";
  out << "  \"rank_estimates_agree\": " << (all_ranks ? "true" : "false")
      << "\n}\n";
  std::printf("\nwrote BENCH_incremental.json\n");
  return (all_bitwise && all_ranks && lep_bitwise) ? 0 : 1;
}
