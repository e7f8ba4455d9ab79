// Tests for the aspe::par execution layer and the ExecContext determinism
// guarantee: for a fixed seed, every attack produces bit-identical results
// at any thread count (and, with deterministic contexts, identical to the
// legacy serial entry points).
#include "par/parallel.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "core/evaluation.hpp"
#include "core/lep.hpp"
#include "core/snmf_attack.hpp"
#include "data/queries.hpp"
#include "data/quest.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "obs/sinks.hpp"
#include "rng/rng.hpp"
#include "scheme/split_encryptor.hpp"
#include "sse/system.hpp"

namespace aspe {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<int> visits(n, 0);
  par::parallel_for(
      0, n, 7, [&](std::size_t i) { ++visits[i]; }, /*threads=*/4);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i], 1) << i;
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  std::vector<int> visits(4, 0);
  par::parallel_for(0, 0, 1, [&](std::size_t i) { ++visits[i]; }, 4);
  par::parallel_for(3, 3, 8, [&](std::size_t i) { ++visits[i]; }, 4);
  for (int v : visits) EXPECT_EQ(v, 0);

  par::parallel_for(2, 3, 1, [&](std::size_t i) { ++visits[i]; }, 4);
  EXPECT_EQ(visits[2], 1);

  // Grain far larger than the range: one chunk, still every index once.
  par::parallel_for(0, 4, 1000, [&](std::size_t i) { ++visits[i]; }, 4);
  EXPECT_EQ(visits[0], 1);
  EXPECT_EQ(visits[1], 1);
  EXPECT_EQ(visits[2], 2);
  EXPECT_EQ(visits[3], 1);
}

TEST(ParallelFor, PropagatesExceptionsAndPoolStaysUsable) {
  EXPECT_THROW(
      par::parallel_for(
          0, 512, 4,
          [&](std::size_t i) {
            if (i == 137) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);

  // The shared pool must survive a failed batch and run the next one.
  std::vector<int> visits(256, 0);
  par::parallel_for(0, 256, 4, [&](std::size_t i) { ++visits[i]; }, 4);
  for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(visits[i], 1) << i;
}

TEST(ParallelFor, NestedCallsFallBackToSerial) {
  // A parallel_for issued from inside a pool chunk must not deadlock: it
  // runs serially on the issuing thread (in_parallel_region is set there).
  std::vector<int> outer_region(8, -1);
  std::vector<int> inner(8 * 16, 0);
  par::parallel_for(
      0, 8, 1,
      [&](std::size_t i) {
        outer_region[i] = par::ThreadPool::in_parallel_region() ? 1 : 0;
        par::parallel_for(
            0, 16, 1, [&](std::size_t j) { ++inner[i * 16 + j]; }, 4);
      },
      4);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(outer_region[i], 1) << i;
  for (std::size_t k = 0; k < inner.size(); ++k) EXPECT_EQ(inner[k], 1) << k;
  EXPECT_FALSE(par::ThreadPool::in_parallel_region());
}

TEST(ParallelReduce, MatchesClosedFormAtEveryWidth) {
  const std::size_t n = 100000;
  const auto sum_chunk = [](std::size_t lo, std::size_t hi) {
    double s = 0.0;
    for (std::size_t i = lo; i < hi; ++i) s += static_cast<double>(i);
    return s;
  };
  const auto plus = [](double a, double b) { return a + b; };
  const double expected = static_cast<double>(n) * (n - 1) / 2.0;
  const double s1 = par::parallel_reduce(std::size_t{0}, n, std::size_t{1024},
                                         0.0, sum_chunk, plus, 1);
  const double s4 = par::parallel_reduce(std::size_t{0}, n, std::size_t{1024},
                                         0.0, sum_chunk, plus, 4);
  EXPECT_DOUBLE_EQ(s1, expected);
  // Same chunking => same combine order => bit-identical, not just close.
  EXPECT_EQ(s1, s4);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  const auto sum_chunk = [](std::size_t, std::size_t) { return 1.0; };
  const auto plus = [](double a, double b) { return a + b; };
  EXPECT_EQ(par::parallel_reduce(std::size_t{5}, std::size_t{5},
                                 std::size_t{8}, -3.5, sum_chunk, plus, 4),
            -3.5);
}

TEST(Par, MatrixProductBitIdenticalAcrossThreadCounts) {
  rng::Rng rng(21);
  // 200x150 with inner dimension 100 is 3M multiply-adds: gemm cuts it into
  // several tasks over both its row blocks and its column panels, so the
  // threaded kernel actually engages (a pool batch, not a serial run).
  linalg::Matrix a(200, 100), b(100, 150);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) a(i, k) = rng.uniform(-1, 1);
  for (std::size_t k = 0; k < b.rows(); ++k)
    for (std::size_t j = 0; j < b.cols(); ++j) b(k, j) = rng.uniform(-1, 1);

  par::set_default_threads(1);
  const linalg::Matrix serial = a * b;
  par::set_default_threads(4);
  linalg::Matrix threaded;
  obs::MemorySink sink;
  {
    obs::ScopedRecording rec(&sink);
    threaded = a * b;
  }
  par::set_default_threads(0);  // restore the hardware default
  EXPECT_GE(sink.counter("par.batches"), 1.0);
  EXPECT_EQ(sink.counters().count("par.serial_batches"), 0u);

  ASSERT_EQ(serial.rows(), threaded.rows());
  ASSERT_EQ(serial.cols(), threaded.cols());
  for (std::size_t i = 0; i < serial.rows(); ++i) {
    for (std::size_t j = 0; j < serial.cols(); ++j) {
      EXPECT_EQ(serial(i, j), threaded(i, j)) << i << "," << j;
    }
  }
}

TEST(Par, GemmRunsFullWidthAfterSingleThreadedCall) {
  // A process that first runs 1-thread products must still get the full
  // width later: the pool keeps no width from its first use. The product
  // has a single row block of C (the ANLS F = W R shape), so only the
  // column split of gemm's tiles can spread it.
  rng::Rng rng(23);
  linalg::Matrix w(12, 2000), r(2000, 400);
  for (auto& x : w.data()) x = rng.uniform(0, 1);
  for (auto& x : r.data()) x = rng.uniform(0, 1);
  linalg::Matrix f1(12, 400), f4(12, 400);

  const auto recorded_gemm = [&](linalg::Matrix& f, std::size_t threads) {
    obs::MemorySink sink;
    obs::ScopedRecording rec(&sink);
    linalg::gemm(1.0, w.cview(), linalg::Op::None, r.cview(),
                 linalg::Op::None, 0.0, f.view(), threads);
    return rec.finish();
  };
  const obs::Summary one = recorded_gemm(f1, 1);
  EXPECT_EQ(one.counters.count("par.batches"), 0u);  // no pool call at all
  EXPECT_EQ(one.counters.count("par.serial_batches"), 0u);

  const obs::Summary four = recorded_gemm(f4, 4);
  ASSERT_EQ(four.gauges.count("par.width"), 1u);
  EXPECT_EQ(four.gauges.at("par.width"), 4.0);
  EXPECT_EQ(four.counters.at("par.batches"), 1.0);  // one batch per call
  EXPECT_EQ(four.counters.count("par.serial_batches"), 0u);
  EXPECT_EQ(f1.data(), f4.data());
}

// ------------------------------------------------------ attack determinism

struct SnmfScenario {
  sse::CoaView view;
};

SnmfScenario make_snmf_scenario(std::size_t d, std::size_t m, std::size_t n,
                                std::uint64_t seed) {
  rng::Rng rng(seed);
  scheme::SplitEncryptor enc(d, rng);
  SnmfScenario s;
  for (std::size_t i = 0; i < m; ++i) {
    s.view.cipher_indexes.push_back(
        enc.encrypt_index(to_real(rng.binary_bernoulli(d, 0.3)), rng));
  }
  for (std::size_t j = 0; j < n; ++j) {
    s.view.cipher_trapdoors.push_back(
        enc.encrypt_trapdoor(to_real(rng.binary_bernoulli(d, 0.25)), rng));
  }
  return s;
}

TEST(ExecContextDeterminism, SnmfIdenticalAcrossThreadCountsAndToLegacy) {
  const SnmfScenario s = make_snmf_scenario(8, 20, 20, 31);
  core::SnmfAttackOptions opt;
  opt.rank = 8;
  opt.restarts = 3;
  opt.nmf.max_iterations = 120;

  core::ExecContext ctx1;
  ctx1.threads = 1;
  ctx1.seed = 5;
  core::ExecContext ctx4 = ctx1;
  ctx4.threads = 4;

  const auto r1 = core::run_snmf_attack(s.view, opt, ctx1);
  const auto r4 = core::run_snmf_attack(s.view, opt, ctx4);
  EXPECT_EQ(r1.indexes, r4.indexes);
  EXPECT_EQ(r1.trapdoors, r4.trapdoors);
  EXPECT_EQ(r1.best_fit_error, r4.best_fit_error);  // bit-identical
  EXPECT_EQ(r1.telemetry.counter("snmf.restarts_run", -1.0),
            r4.telemetry.counter("snmf.restarts_run", -2.0));

  // Deterministic contexts reproduce the serial draw schedule exactly: a
  // fresh serial context with the same seed must match the parallel runs
  // bit-for-bit.
  core::ExecContext legacy_ctx;
  legacy_ctx.threads = 1;
  legacy_ctx.seed = 5;
  const auto legacy = core::run_snmf_attack(s.view, opt, legacy_ctx);
  EXPECT_EQ(legacy.indexes, r1.indexes);
  EXPECT_EQ(legacy.trapdoors, r1.trapdoors);
  EXPECT_EQ(legacy.best_fit_error, r1.best_fit_error);
}

TEST(ExecContextDeterminism, SnmfSingleRestartExercisesInnerParallelism) {
  // restarts = 1 leaves the restart loop a single chunk, so the NMF update
  // kernels themselves are the parallel section; they must stay exact too.
  const SnmfScenario s = make_snmf_scenario(6, 16, 16, 33);
  core::SnmfAttackOptions opt;
  opt.rank = 6;
  opt.restarts = 1;
  opt.nmf.max_iterations = 100;

  core::ExecContext ctx1;
  ctx1.threads = 1;
  ctx1.seed = 7;
  core::ExecContext ctx4 = ctx1;
  ctx4.threads = 4;
  const auto r1 = core::run_snmf_attack(s.view, opt, ctx1);
  const auto r4 = core::run_snmf_attack(s.view, opt, ctx4);
  EXPECT_EQ(r1.indexes, r4.indexes);
  EXPECT_EQ(r1.trapdoors, r4.trapdoors);
  EXPECT_EQ(r1.best_fit_error, r4.best_fit_error);
}

TEST(ExecContextDeterminism, MipBatchIdenticalAcrossThreadCounts) {
  const std::size_t d = 16, m = 16;
  scheme::MrseOptions opt;
  opt.vocab_dim = d;
  sse::RankedSearchSystem system(opt, 41);
  rng::Rng rng(42);
  data::QuestOptions qopt;
  qopt.num_items = d;
  qopt.density = 0.3;
  qopt.num_transactions = m;
  system.upload_records(data::QuestGenerator(qopt, rng.child(1)).generate());
  for (int j = 0; j < 2; ++j) {
    system.ranked_query(rng.binary_with_k_ones(d, 3), 5);
  }
  std::vector<std::size_t> ids(m);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  const auto view = sse::leak_known_records(system, ids);

  core::MipAttackOptions aopt;
  aopt.solver.time_limit_seconds = 10.0;
  core::ExecContext ctx1;
  ctx1.threads = 1;
  core::ExecContext ctx4;
  ctx4.threads = 4;
  const auto rep1 =
      core::run_mip_attack_batch(view, opt.mu, opt.sigma, {}, aopt, ctx1);
  const auto rep4 =
      core::run_mip_attack_batch(view, opt.mu, opt.sigma, {}, aopt, ctx4);

  ASSERT_EQ(rep1.entries.size(), rep4.entries.size());
  EXPECT_EQ(rep1.attempted, rep4.attempted);
  EXPECT_EQ(rep1.solved, rep4.solved);
  for (std::size_t j = 0; j < rep1.entries.size(); ++j) {
    EXPECT_EQ(rep1.entries[j].attack.found, rep4.entries[j].attack.found) << j;
    EXPECT_EQ(rep1.entries[j].attack.query, rep4.entries[j].attack.query) << j;
    EXPECT_EQ(rep1.entries[j].attack.rhat, rep4.entries[j].attack.rhat) << j;
    EXPECT_EQ(rep1.entries[j].attack.that, rep4.entries[j].attack.that) << j;
  }
}

TEST(ExecContextDeterminism, LepIdenticalToLegacyEntryPoint) {
  scheme::Scheme2Options sopt;
  sopt.record_dim = 5;
  sopt.padding_dims = 2;
  sse::SecureKnnSystem system(sopt, 51);
  rng::Rng rng(51 ^ 0x1234);
  const auto records = data::real_records(12, 5, -2.0, 2.0, rng);
  system.upload_records(records);
  for (std::size_t j = 0; j < 9; ++j) {
    system.knn_query(rng.uniform_vec(5, -2.0, 2.0), 3);
  }
  std::vector<std::size_t> leaked(6);
  std::iota(leaked.begin(), leaked.end(), std::size_t{0});
  const sse::KpaView view = sse::leak_known_records(system, leaked);

  const core::LepResult legacy = core::run_lep_attack(view);
  core::ExecContext ctx;
  ctx.threads = 4;
  const core::LepResult par_res =
      core::run_lep_attack(view, core::LepOptions{}, ctx);

  EXPECT_EQ(legacy.trapdoors, par_res.trapdoors);
  EXPECT_EQ(legacy.queries, par_res.queries);
  EXPECT_EQ(legacy.query_multipliers, par_res.query_multipliers);
  EXPECT_EQ(legacy.indexes, par_res.indexes);
  EXPECT_EQ(legacy.records, par_res.records);
  EXPECT_EQ(legacy.telemetry.counter("lep.trapdoors_scanned_for_basis", -1.0),
            par_res.telemetry.counter("lep.trapdoors_scanned_for_basis", -2.0));
  EXPECT_GT(
      par_res.telemetry.counter("lep.trapdoors_scanned_for_basis", 0.0), 0.0);
}

TEST(ExecContext, ResolvesProcessDefault) {
  core::ExecContext ctx;
  EXPECT_EQ(ctx.threads, 1u);
  EXPECT_EQ(ctx.resolved_threads(), 1u);
  ctx.threads = 0;
  EXPECT_EQ(ctx.resolved_threads(), par::default_threads());
  ctx.threads = 3;
  EXPECT_EQ(ctx.resolved_threads(), 3u);
}

TEST(Par, EstimateLatentDimensionRvalueMatchesConstRef) {
  const SnmfScenario s = make_snmf_scenario(7, 28, 28, 61);
  const linalg::Matrix r = core::build_score_matrix(s.view.cipher_indexes,
                                                    s.view.cipher_trapdoors);
  linalg::Matrix donated = r;
  EXPECT_EQ(core::estimate_latent_dimension(std::move(donated)),
            core::estimate_latent_dimension(r));
}

TEST(CliFlags, ThreadsFlagParsing) {
  const auto parse = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    return CliFlags(static_cast<int>(argv.size()), argv.data());
  };
  EXPECT_EQ(parse({}).get_threads(), 1u);
  EXPECT_EQ(parse({}).get_threads(7), 7u);
  EXPECT_EQ(parse({"--threads=4"}).get_threads(), 4u);
  EXPECT_EQ(parse({"--threads", "2"}).get_threads(), 2u);
  EXPECT_EQ(parse({"--threads=0"}).get_threads(), 0u);
  EXPECT_EQ(parse({"--threads=all"}).get_threads(), 0u);
  EXPECT_THROW((void)parse({"--threads=-2"}).get_threads(), InvalidArgument);
  EXPECT_THROW((void)parse({"--threads=abc"}).get_threads(), InvalidArgument);
  EXPECT_THROW((void)parse({"--threads=4x"}).get_threads(), InvalidArgument);
  EXPECT_THROW((void)parse({"--threads="}).get_threads(), InvalidArgument);
}

}  // namespace
}  // namespace aspe
