// Micro-benchmarks (google-benchmark) for the substrates: linear algebra,
// simplex, NNLS/NMF, text pipeline, encryption throughput and the LEP attack
// kernel. These are ablation-style numbers, not paper reproductions.
#include <benchmark/benchmark.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/lep.hpp"
#include "core/mip_attack.hpp"
#include "core/snmf_attack.hpp"
#include "data/queries.hpp"
#include "data/quest.hpp"
#include "linalg/kernels.hpp"
#include "linalg/lu.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/svd.hpp"
#include "nmf/nmf.hpp"
#include "nmf/nnls.hpp"
#include "obs/sinks.hpp"
#include "opt/mip.hpp"
#include "opt/simplex.hpp"
#include "par/thread_pool.hpp"
#include "scheme/mkfse.hpp"
#include "scheme/scheme2.hpp"
#include "scheme/split_encryptor.hpp"
#include "sse/adversary_view.hpp"
#include "sse/system.hpp"
#include "text/bloom_filter.hpp"

using namespace aspe;

namespace {

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(1);
  const auto a = linalg::random_invertible(n, rng);
  const Vec b = rng.uniform_vec(n, -1.0, 1.0);
  for (auto _ : state) {
    linalg::LuDecomposition lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LuSolve)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Complexity();

void BM_MatrixMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(2);
  const auto a = linalg::random_matrix(n, rng);
  const auto b = linalg::random_matrix(n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_MatrixMultiply)->Arg(64)->Arg(128)->Arg(256);

void BM_SimplexLp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(3);
  opt::Model m;
  for (std::size_t j = 0; j < n; ++j) m.add_variable(0.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    opt::LinExpr e;
    for (std::size_t j = 0; j < n; ++j) e.push_back({j, rng.uniform(0.0, 1.0)});
    m.add_constraint(std::move(e), opt::Sense::LessEqual,
                     0.3 * static_cast<double>(n));
  }
  opt::LinExpr obj;
  for (std::size_t j = 0; j < n; ++j) obj.push_back({j, -rng.uniform(0.0, 1.0)});
  m.set_objective(std::move(obj));
  for (auto _ : state) benchmark::DoNotOptimize(opt::solve_lp(m));
}
BENCHMARK(BM_SimplexLp)->Arg(20)->Arg(50)->Arg(100);

void BM_Nnls(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(4);
  linalg::Matrix a(2 * n, n);
  for (auto& x : a.data()) x = rng.uniform(0.0, 1.0);
  const Vec b = rng.uniform_vec(2 * n, 0.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(nmf::nnls(a, b));
}
BENCHMARK(BM_Nnls)->Arg(16)->Arg(32)->Arg(64);

// One ANLS iteration (an NNLS half-step each for H and W) from a random
// start on an exact rank-d product.
void BM_SparseNmfIteration(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(5);
  linalg::Matrix w(d, 2 * d), h(d, 2 * d);
  for (auto& x : w.data()) x = rng.bernoulli(0.3) ? 1.0 : 0.0;
  for (auto& x : h.data()) x = rng.bernoulli(0.3) ? 1.0 : 0.0;
  const linalg::Matrix r = w.transpose() * h;
  nmf::SparseNmfOptions opt;
  opt.max_iterations = 1;
  opt.rel_tol = 0.0;
  for (auto _ : state) {
    rng::Rng run_rng(6);
    benchmark::DoNotOptimize(nmf::sparse_nmf(r, d, opt, run_rng));
  }
}
BENCHMARK(BM_SparseNmfIteration)->Arg(16)->Arg(32)->Arg(64);

void BM_BloomEncode(benchmark::State& state) {
  std::vector<std::string> keywords;
  for (int i = 0; i < 30; ++i) keywords.push_back("keyword" + std::to_string(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::encode_keywords(keywords, 500, 3, 42));
  }
}
BENCHMARK(BM_BloomEncode);

void BM_Scheme2EncryptRecord(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(7);
  scheme::Scheme2Options opt;
  opt.record_dim = d;
  const scheme::AspeScheme2 scheme(opt, rng);
  const Vec p = rng.uniform_vec(d, -1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.encrypt_record(p, rng));
  }
}
BENCHMARK(BM_Scheme2EncryptRecord)->Arg(32)->Arg(128)->Arg(512);

void BM_CipherScore(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(8);
  scheme::Scheme2Options opt;
  opt.record_dim = d;
  const scheme::AspeScheme2 scheme(opt, rng);
  const auto ci = scheme.encrypt_record(rng.uniform_vec(d, -1.0, 1.0), rng);
  const auto ct = scheme.encrypt_query(rng.uniform_vec(d, -1.0, 1.0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme::cipher_score(ci, ct));
  }
}
BENCHMARK(BM_CipherScore)->Arg(128)->Arg(512);

void BM_MkfseIndex(benchmark::State& state) {
  rng::Rng rng(9);
  scheme::MkfseOptions opt;
  const scheme::Mkfse scheme(opt, rng);
  std::vector<std::string> keywords;
  for (int i = 0; i < 10; ++i) keywords.push_back("word" + std::to_string(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.build_index(keywords));
  }
}
BENCHMARK(BM_MkfseIndex);

// ------------------------------------------------------ thread-count sweeps
//
// Each sweep runs the same kernel at 1/2/4/8 threads and reports the speedup
// relative to its own single-thread run (registration order guarantees the
// t=1 baseline runs first). Results are bit-identical across the sweep —
// only the wall clock moves.

/// Remember the t=1 average seconds per kernel and report baseline/current.
double record_speedup(const std::string& kernel, std::size_t threads,
                      double avg_seconds) {
  static std::map<std::string, double> baseline;
  if (threads == 1) baseline[kernel] = avg_seconds;
  const auto it = baseline.find(kernel);
  if (it == baseline.end() || avg_seconds <= 0.0) return 0.0;
  return it->second / avg_seconds;
}

void BM_MatrixMultiplyThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(12);
  const auto a = linalg::random_matrix(192, rng);
  const auto b = linalg::random_matrix(192, rng);
  par::set_default_threads(threads);
  Stopwatch watch;
  std::size_t iters = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
    ++iters;
  }
  const double avg = watch.seconds() / static_cast<double>(std::max<std::size_t>(iters, 1));
  par::set_default_threads(0);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["speedup"] = record_speedup("matmul", threads, avg);
}
BENCHMARK(BM_MatrixMultiplyThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_BuildScoreMatrixThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 24, m = 96, n = 96;
  rng::Rng rng(13);
  scheme::SplitEncryptor enc(d, rng);
  std::vector<scheme::CipherPair> indexes, trapdoors;
  for (std::size_t i = 0; i < m; ++i) {
    indexes.push_back(
        enc.encrypt_index(to_real(rng.binary_bernoulli(d, 0.3)), rng));
  }
  for (std::size_t j = 0; j < n; ++j) {
    trapdoors.push_back(
        enc.encrypt_trapdoor(to_real(rng.binary_bernoulli(d, 0.25)), rng));
  }
  Stopwatch watch;
  std::size_t iters = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_score_matrix(indexes, trapdoors, threads));
    ++iters;
  }
  const double avg = watch.seconds() / static_cast<double>(std::max<std::size_t>(iters, 1));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["speedup"] = record_speedup("score_matrix", threads, avg);
}
BENCHMARK(BM_BuildScoreMatrixThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SnmfRestartsThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 12;
  rng::Rng rng(14);
  linalg::Matrix w(d, 3 * d), h(d, 3 * d);
  for (auto& x : w.data()) x = rng.bernoulli(0.3) ? 1.0 : 0.0;
  for (auto& x : h.data()) x = rng.bernoulli(0.3) ? 1.0 : 0.0;
  const linalg::Matrix scores = w.transpose() * h;
  core::SnmfAttackOptions opt;
  opt.rank = d;
  opt.restarts = 8;
  opt.nmf.max_iterations = 60;
  core::ExecContext ctx;
  ctx.threads = threads;
  ctx.seed = 15;
  Stopwatch watch;
  std::size_t iters = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_snmf_attack(scores, opt, ctx));
    ++iters;
  }
  const double avg = watch.seconds() / static_cast<double>(std::max<std::size_t>(iters, 1));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["speedup"] = record_speedup("snmf_restarts", threads, avg);
}
BENCHMARK(BM_SnmfRestartsThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// -------------------------------------------------- GEMM GFLOP/s sweep
//
// Blocked packed kernel throughput across sizes and thread counts, plus a
// seed-style naive triple-loop reference at 512 for the speedup headline.
// Every run is appended to a registry that main() dumps to
// BENCH_linalg.json next to the binary's working directory.

struct LinalgRecord {
  std::string kernel;
  std::size_t n = 0;
  std::size_t threads = 0;
  double seconds = 0.0;
  double gflops = 0.0;
};

std::vector<LinalgRecord>& linalg_records() {
  static std::vector<LinalgRecord> records;
  return records;
}

void BM_GemmGflops(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  rng::Rng rng(21);
  const auto a = linalg::random_matrix(n, rng);
  const auto b = linalg::random_matrix(n, rng);
  linalg::Matrix c(n, n);
  Stopwatch watch;
  std::size_t iters = 0;
  for (auto _ : state) {
    linalg::gemm(1.0, a.cview(), linalg::Op::None, b.cview(),
                 linalg::Op::None, 0.0, c.view(), threads);
    benchmark::DoNotOptimize(c.data().data());
    ++iters;
  }
  const double avg =
      watch.seconds() / static_cast<double>(std::max<std::size_t>(iters, 1));
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  const double gflops = avg > 0.0 ? flops / avg / 1e9 : 0.0;
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["GFLOPs"] = gflops;
  linalg_records().push_back({"gemm_blocked", n, threads, avg, gflops});
}
BENCHMARK(BM_GemmGflops)
    ->Args({128, 1})
    ->Args({128, 4})
    ->Args({128, 8})
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({256, 8})
    ->Args({512, 1})
    ->Args({512, 4})
    ->Args({512, 8})
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->Args({1024, 8});

void BM_GemmNaiveReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(21);
  const auto a = linalg::random_matrix(n, rng);
  const auto b = linalg::random_matrix(n, rng);
  linalg::Matrix c(n, n);
  Stopwatch watch;
  std::size_t iters = 0;
  for (auto _ : state) {
    // Seed-era operator*: serial i-k-j triple loop with a zero skip.
    for (auto& x : c.data()) x = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double* ci = c.row_ptr(i);
      for (std::size_t k = 0; k < n; ++k) {
        const double av = a(i, k);
        if (av == 0.0) continue;
        const double* bk = b.row_ptr(k);
        for (std::size_t j = 0; j < n; ++j) ci[j] += av * bk[j];
      }
    }
    benchmark::DoNotOptimize(c.data().data());
    ++iters;
  }
  const double avg =
      watch.seconds() / static_cast<double>(std::max<std::size_t>(iters, 1));
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  const double gflops = avg > 0.0 ? flops / avg / 1e9 : 0.0;
  state.counters["GFLOPs"] = gflops;
  linalg_records().push_back({"gemm_naive", n, 1, avg, gflops});
}
BENCHMARK(BM_GemmNaiveReference)->Arg(512);

/// BENCH_linalg.json: the sweep records plus the blocked-vs-naive headline
/// ratio at 512 single-thread (the PR's acceptance number).
void write_linalg_json(const std::string& path) {
  if (linalg_records().empty()) return;  // sweep filtered out on this run
  // google-benchmark re-invokes each case while calibrating iteration
  // counts; keep only the last (fully measured) record per configuration.
  std::vector<LinalgRecord> records;
  for (const auto& r : linalg_records()) {
    bool replaced = false;
    for (auto& kept : records) {
      if (kept.kernel == r.kernel && kept.n == r.n &&
          kept.threads == r.threads) {
        kept = r;
        replaced = true;
        break;
      }
    }
    if (!replaced) records.push_back(r);
  }
  double naive512 = 0.0;
  double blocked512_t1 = 0.0;
  for (const auto& r : records) {
    if (r.kernel == "gemm_naive" && r.n == 512) naive512 = r.seconds;
    if (r.kernel == "gemm_blocked" && r.n == 512 && r.threads == 1) {
      blocked512_t1 = r.seconds;
    }
  }
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"linalg_gemm_sweep\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"n\": " << r.n
        << ", \"threads\": " << r.threads << ", \"seconds\": " << r.seconds
        << ", \"gflops\": " << r.gflops << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"speedup_blocked_vs_naive_512_t1\": "
      << (blocked512_t1 > 0.0 ? naive512 / blocked512_t1 : 0.0) << "\n}\n";
}

// ------------------------------------------- warm-start LP / MIP sweep
//
// Cold vs warm-started node throughput for the optimizer, on the same
// band-constraint models the §IV MIP attack produces (rhat/that continuous +
// binary keywords, one GE/LE noise-band pair per known record). Results go
// to BENCH_opt.json; the headline is the cold/warm ratio of total simplex
// iterations across the branch-and-bound sweep.

struct OptRecord {
  std::string bench;  // "lp_resolve" | "mip_bnb"
  std::string mode;   // "cold" | "warm"
  std::size_t d = 0;  // keywords (binaries) or LP variables
  std::size_t m = 0;  // known records (band pairs) or LP rows
  std::size_t nodes = 0;
  std::size_t iterations = 0;
  double seconds = 0.0;
};

std::vector<OptRecord>& opt_records() {
  static std::vector<OptRecord> records;
  return records;
}

/// Attack-shaped feasibility model: find (rhat, that, q) with every noise
/// term rhat*c_i - that - P_i.q inside [mu - 3s, mu + 3s]. Feasible by
/// construction (c_i is derived from a planted query).
opt::Model band_model(std::size_t d, std::size_t m, rng::Rng& rng) {
  const double rhat_true = 1.3, that_true = 0.7, sigma = 0.05;
  std::vector<BitVec> records;
  BitVec q = rng.binary_bernoulli(d, 0.3);
  q[0] = 1;  // at least one keyword
  for (std::size_t i = 0; i < m; ++i) {
    records.push_back(rng.binary_bernoulli(d, 0.4));
  }
  opt::Model model;
  const auto rhat = model.add_variable(1e-4, 1e4);
  const auto that = model.add_variable(1e-6, 1e4);
  std::vector<std::size_t> qv(d);
  for (std::size_t k = 0; k < d; ++k) qv[k] = model.add_binary();
  opt::LinExpr card;
  for (std::size_t k = 0; k < d; ++k) card.push_back({qv[k], 1.0});
  model.add_constraint(std::move(card), opt::Sense::GreaterEqual, 1.0);
  for (std::size_t i = 0; i < m; ++i) {
    double a = 0.0;
    for (std::size_t k = 0; k < d; ++k) a += (records[i][k] & q[k]) ? 1.0 : 0.0;
    const double noise = rng.uniform(-2.5 * sigma, 2.5 * sigma);
    const double c = (a + that_true + noise) / rhat_true;
    opt::LinExpr e;
    e.push_back({rhat, c});
    e.push_back({that, -1.0});
    for (std::size_t k = 0; k < d; ++k) {
      if (records[i][k] != 0) e.push_back({qv[k], -1.0});
    }
    model.add_constraint(e, opt::Sense::GreaterEqual, -3.0 * sigma);
    model.add_constraint(std::move(e), opt::Sense::LessEqual, 3.0 * sigma);
  }
  return model;
}

void BM_MipBandModelBnB(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const bool warm = state.range(2) != 0;
  rng::Rng rng(33 + d + m);
  const opt::Model model = band_model(d, m, rng);
  opt::MipOptions opts;
  opts.first_feasible = true;  // Algorithm 2's mode
  opts.warm_start = warm;
  opts.time_limit_seconds = 10.0;
  opt::MipResult last;
  Stopwatch watch;
  std::size_t iters = 0;
  for (auto _ : state) {
    last = opt::solve_mip(model, opts);
    benchmark::DoNotOptimize(last.nodes_explored);
    ++iters;
  }
  const double avg =
      watch.seconds() / static_cast<double>(std::max<std::size_t>(iters, 1));
  state.counters["nodes"] = static_cast<double>(last.nodes_explored);
  state.counters["lp_iters"] = static_cast<double>(last.simplex_iterations);
  opt_records().push_back({"mip_bnb", warm ? "warm" : "cold", d, m,
                           last.nodes_explored, last.simplex_iterations, avg});
}
BENCHMARK(BM_MipBandModelBnB)
    ->Args({20, 30, 0})
    ->Args({20, 30, 1})
    ->Args({30, 50, 0})
    ->Args({30, 50, 1})
    ->Args({40, 60, 0})
    ->Args({40, 60, 1});

void BM_LpWarmResolve(benchmark::State& state) {
  // One bound tightening + re-solve, the B&B node kernel: cold re-solves
  // from the artificial basis, warm restores the root basis and runs the
  // dual simplex.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool warm = state.range(1) != 0;
  rng::Rng rng(3);  // same generator as BM_SimplexLp
  opt::Model m;
  for (std::size_t j = 0; j < n; ++j) m.add_variable(0.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    opt::LinExpr e;
    for (std::size_t j = 0; j < n; ++j) e.push_back({j, rng.uniform(0.0, 1.0)});
    m.add_constraint(std::move(e), opt::Sense::LessEqual,
                     0.3 * static_cast<double>(n));
  }
  opt::LinExpr obj;
  for (std::size_t j = 0; j < n; ++j) obj.push_back({j, -rng.uniform(0.0, 1.0)});
  m.set_objective(std::move(obj));

  opt::SimplexSolver solver(m);
  const opt::LpResult root = solver.solve();
  const opt::BasisState root_basis = solver.basis();
  std::size_t var = 0;
  std::size_t total_iters = 0, resolves = 0;
  Stopwatch watch;
  for (auto _ : state) {
    solver.set_bounds(var, 0.0, 0.5);  // branch-like tightening
    opt::LpResult r;
    if (warm) {
      solver.restore(root_basis);
      r = solver.solve_warm();
    } else {
      r = solver.solve();
    }
    benchmark::DoNotOptimize(r.objective);
    total_iters += r.iterations;
    ++resolves;
    solver.set_bounds(var, 0.0, 1.0);
    var = (var + 1) % n;
  }
  benchmark::DoNotOptimize(root.objective);
  const double avg =
      watch.seconds() / static_cast<double>(std::max<std::size_t>(resolves, 1));
  const double avg_iters = static_cast<double>(total_iters) /
                           static_cast<double>(std::max<std::size_t>(resolves, 1));
  state.counters["iters_per_resolve"] = avg_iters;
  opt_records().push_back({"lp_resolve", warm ? "warm" : "cold", n, n, resolves,
                           static_cast<std::size_t>(avg_iters + 0.5), avg});
}
BENCHMARK(BM_LpWarmResolve)
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({100, 0})
    ->Args({100, 1});

/// BENCH_opt.json: the sweep records plus the headline cold/warm iteration
/// ratio summed over the branch-and-bound configurations (the PR's
/// acceptance number).
void write_opt_json(const std::string& path) {
  if (opt_records().empty()) return;  // sweep filtered out on this run
  // Keep only the last (fully measured) record per configuration; benchmark
  // re-invokes each case while calibrating.
  std::vector<OptRecord> records;
  for (const auto& r : opt_records()) {
    bool replaced = false;
    for (auto& kept : records) {
      if (kept.bench == r.bench && kept.mode == r.mode && kept.d == r.d &&
          kept.m == r.m) {
        kept = r;
        replaced = true;
        break;
      }
    }
    if (!replaced) records.push_back(r);
  }
  double cold_iters = 0.0, warm_iters = 0.0;
  double cold_seconds = 0.0, warm_seconds = 0.0;
  for (const auto& r : records) {
    if (r.bench != "mip_bnb") continue;
    if (r.mode == "cold") {
      cold_iters += static_cast<double>(r.iterations);
      cold_seconds += r.seconds;
    } else {
      warm_iters += static_cast<double>(r.iterations);
      warm_seconds += r.seconds;
    }
  }
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"opt_warm_start_sweep\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"bench\": \"" << r.bench << "\", \"mode\": \"" << r.mode
        << "\", \"d\": " << r.d << ", \"m\": " << r.m
        << ", \"nodes\": " << r.nodes << ", \"iterations\": " << r.iterations
        << ", \"seconds\": " << r.seconds << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"mip_iteration_reduction_cold_over_warm\": "
      << (warm_iters > 0.0 ? cold_iters / warm_iters : 0.0)
      << ",\n  \"mip_wallclock_speedup_cold_over_warm\": "
      << (warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0) << "\n}\n";
}

// ----------------------------------------------------- obs overhead sweep
//
// Each attack runs three ways — no sink (the instrumented code's inert
// branch), NullSink (full record/merge, output discarded) and MemorySink
// (record + accumulate) — and the ratios land in BENCH_obs.json. The
// acceptance bar is the "none" mode: attaching nothing must cost < 1%
// relative to the pre-instrumentation drivers, which the inert-branch times
// recorded here document against the PR 3 baselines.

struct ObsRecord {
  std::string kernel;
  std::string sink;  // "none" | "null" | "memory"
  double seconds = 0.0;
};

std::vector<ObsRecord>& obs_records() {
  static std::vector<ObsRecord> records;
  return records;
}

const char* obs_mode_name(std::int64_t mode) {
  return mode == 0 ? "none" : mode == 1 ? "null" : "memory";
}

/// Sink for the given sweep mode. The sinks live for the whole process; the
/// MemorySink is cleared per benchmark so accumulation stays bounded.
obs::Sink* obs_mode_sink(std::int64_t mode) {
  static obs::NullSink null_sink;
  static obs::MemorySink memory_sink;
  if (mode == 1) return &null_sink;
  if (mode == 2) {
    memory_sink.clear();
    return &memory_sink;
  }
  return nullptr;
}

void BM_LepAttackObs(benchmark::State& state) {
  const std::size_t d = 32;
  scheme::Scheme2Options opt;
  opt.record_dim = d;
  sse::SecureKnnSystem system(opt, 10);
  rng::Rng rng(11);
  system.upload_records(data::real_records(d + 5, d, -1.0, 1.0, rng));
  for (std::size_t j = 0; j < d + 3; ++j) {
    system.knn_query(rng.uniform_vec(d, -1.0, 1.0), 3);
  }
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i <= d; ++i) ids.push_back(i);
  const auto view = sse::leak_known_records(system, ids);
  core::ExecContext ctx;
  ctx.sink = obs_mode_sink(state.range(0));
  Stopwatch watch;
  std::size_t iters = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_lep_attack(view, {}, ctx));
    ++iters;
  }
  const double avg =
      watch.seconds() / static_cast<double>(std::max<std::size_t>(iters, 1));
  obs_records().push_back({"lep_attack_d32", obs_mode_name(state.range(0)), avg});
}
BENCHMARK(BM_LepAttackObs)->Arg(0)->Arg(1)->Arg(2);

void BM_SnmfAttackObs(benchmark::State& state) {
  const std::size_t d = 12;
  rng::Rng rng(14);
  linalg::Matrix w(d, 3 * d), h(d, 3 * d);
  for (auto& x : w.data()) x = rng.bernoulli(0.3) ? 1.0 : 0.0;
  for (auto& x : h.data()) x = rng.bernoulli(0.3) ? 1.0 : 0.0;
  const linalg::Matrix scores = w.transpose() * h;
  core::SnmfAttackOptions opt;
  opt.rank = d;
  opt.restarts = 4;
  opt.nmf.max_iterations = 40;
  core::ExecContext ctx;
  ctx.seed = 15;
  ctx.sink = obs_mode_sink(state.range(0));
  Stopwatch watch;
  std::size_t iters = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_snmf_attack(scores, opt, ctx));
    ++iters;
  }
  const double avg =
      watch.seconds() / static_cast<double>(std::max<std::size_t>(iters, 1));
  obs_records().push_back({"snmf_attack_d12", obs_mode_name(state.range(0)), avg});
}
BENCHMARK(BM_SnmfAttackObs)->Arg(0)->Arg(1)->Arg(2);

void BM_MipAttackObs(benchmark::State& state) {
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
  system.ranked_query(rng.binary_with_k_ones(d, 3), 5);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < m; ++i) ids.push_back(i);
  const auto view = sse::leak_known_records(system, ids);
  core::MipAttackOptions aopt;
  aopt.solver.time_limit_seconds = 10.0;
  core::ExecContext ctx;
  ctx.sink = obs_mode_sink(state.range(0));
  Stopwatch watch;
  std::size_t iters = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_mip_attack(view, 0, opt.mu, opt.sigma, aopt, ctx));
    ++iters;
  }
  const double avg =
      watch.seconds() / static_cast<double>(std::max<std::size_t>(iters, 1));
  obs_records().push_back({"mip_attack_d16", obs_mode_name(state.range(0)), avg});
}
BENCHMARK(BM_MipAttackObs)->Arg(0)->Arg(1)->Arg(2);

/// BENCH_obs.json: per-attack wall times under the three sink modes plus
/// the sink-over-none overhead ratios (the PR's acceptance numbers).
void write_obs_json(const std::string& path) {
  if (obs_records().empty()) return;  // sweep filtered out on this run
  // Keep only the last (fully measured) record per configuration; benchmark
  // re-invokes each case while calibrating.
  std::vector<ObsRecord> records;
  for (const auto& r : obs_records()) {
    bool replaced = false;
    for (auto& kept : records) {
      if (kept.kernel == r.kernel && kept.sink == r.sink) {
        kept = r;
        replaced = true;
        break;
      }
    }
    if (!replaced) records.push_back(r);
  }
  const auto seconds_of = [&](const std::string& kernel,
                              const std::string& sink) {
    for (const auto& r : records) {
      if (r.kernel == kernel && r.sink == sink) return r.seconds;
    }
    return 0.0;
  };
  std::vector<std::string> kernels;
  for (const auto& r : records) {
    bool seen = false;
    for (const auto& k : kernels) seen = seen || k == r.kernel;
    if (!seen) kernels.push_back(r.kernel);
  }
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"obs_sink_overhead_sweep\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"sink\": \"" << r.sink
        << "\", \"seconds\": " << r.seconds << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"overheads\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const double none = seconds_of(kernels[i], "none");
    const double null_s = seconds_of(kernels[i], "null");
    const double mem = seconds_of(kernels[i], "memory");
    out << "    {\"kernel\": \"" << kernels[i]
        << "\", \"null_over_none\": " << (none > 0.0 ? null_s / none : 0.0)
        << ", \"memory_over_none\": " << (none > 0.0 ? mem / none : 0.0) << "}"
        << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// ------------------------------------------- truncated SVD / warm ANLS sweep
//
// The PR 5 acceptance numbers: latent-dimension estimation through the
// randomized truncated SVD vs the full Jacobi SVD, and the end-to-end SNMF
// attack with cold vs warm-started NNLS columns, at Table 4 scale. Results
// land in BENCH_snmf.json; the attack outputs must be bit-identical across
// the modes (warm starting and the truncated rank path are optimizations,
// not approximations).

struct SnmfRecord {
  std::string bench;  // "latent_dim" | "attack"
  std::string mode;   // "full" | "truncated" | "cold" | "warm"
  std::size_t n = 0;  // score matrix side (indexes == trapdoors == n)
  std::size_t d = 0;  // latent dimension (bloom-filter length)
  double seconds = 0.0;
  std::size_t value = 0;  // estimated rank / selected restart
};

std::vector<SnmfRecord>& snmf_records() {
  static std::vector<SnmfRecord> records;
  return records;
}

/// Table-4-shaped score matrix: R = W^T H from sparse binary factors, the
/// exact-rank-d structure Algorithm 3 consumes. Deterministic per (n, d).
linalg::Matrix make_scores(std::size_t n, std::size_t d) {
  rng::Rng rng(17 + n + d);
  linalg::Matrix w(d, n), h(d, n);
  for (auto& x : w.data()) x = rng.bernoulli(0.3) ? 1.0 : 0.0;
  for (auto& x : h.data()) x = rng.bernoulli(0.25) ? 1.0 : 0.0;
  return w.transpose() * h;
}

void BM_LatentDimEstimate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool truncated = state.range(1) != 0;
  const std::size_t d = 24;
  const linalg::Matrix scores = make_scores(n, d);
  core::ExecContext ctx;
  ctx.seed = 19;
  std::size_t estimate = 0;
  Stopwatch watch;
  std::size_t iters = 0;
  for (auto _ : state) {
    if (truncated) {
      estimate = core::estimate_latent_dimension(scores, 1e-8, ctx);
    } else {
      // The pre-truncation path: full Jacobi SVD, count above rel_tol.
      estimate = linalg::Svd(scores).rank(1e-8);
    }
    benchmark::DoNotOptimize(estimate);
    ++iters;
  }
  const double avg =
      watch.seconds() / static_cast<double>(std::max<std::size_t>(iters, 1));
  state.counters["estimate"] = static_cast<double>(estimate);
  snmf_records().push_back(
      {"latent_dim", truncated ? "truncated" : "full", n, d, avg, estimate});
}
BENCHMARK(BM_LatentDimEstimate)
    ->Args({192, 0})
    ->Args({192, 1})
    ->Args({288, 0})
    ->Args({288, 1})
    ->Args({384, 0})
    ->Args({384, 1});

/// Last fully-measured attack result per mode, for the bit-identical check
/// at JSON-write time.
core::SnmfAttackResult& snmf_attack_result(bool warm) {
  static core::SnmfAttackResult cold, warmed;
  return warm ? warmed : cold;
}

void BM_SnmfAttackWarmStart(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const std::size_t n = 300, d = 24;
  const linalg::Matrix scores = make_scores(n, d);
  core::SnmfAttackOptions opt;
  opt.rank = d;
  opt.restarts = 3;
  opt.nmf.max_iterations = 60;
  opt.nmf.warm_start = warm;
  core::ExecContext ctx;
  ctx.seed = 15;
  Stopwatch watch;
  std::size_t iters = 0;
  for (auto _ : state) {
    snmf_attack_result(warm) = core::run_snmf_attack(scores, opt, ctx);
    benchmark::DoNotOptimize(snmf_attack_result(warm).best_fit_error);
    ++iters;
  }
  const double avg =
      watch.seconds() / static_cast<double>(std::max<std::size_t>(iters, 1));
  const auto selected = static_cast<std::size_t>(
      snmf_attack_result(warm).telemetry.counter("snmf.selected_restart", 0.0));
  snmf_records().push_back(
      {"attack", warm ? "warm" : "cold", n, d, avg, selected});
}
BENCHMARK(BM_SnmfAttackWarmStart)->Arg(0)->Arg(1);

/// BENCH_snmf.json: the sweep records plus the two headline speedups (the
/// PR's acceptance numbers) and the cross-mode equality flags.
void write_snmf_json(const std::string& path) {
  if (snmf_records().empty()) return;  // sweep filtered out on this run
  // Keep only the last (fully measured) record per configuration; benchmark
  // re-invokes each case while calibrating.
  std::vector<SnmfRecord> records;
  for (const auto& r : snmf_records()) {
    bool replaced = false;
    for (auto& kept : records) {
      if (kept.bench == r.bench && kept.mode == r.mode && kept.n == r.n) {
        kept = r;
        replaced = true;
        break;
      }
    }
    if (!replaced) records.push_back(r);
  }
  // Headlines: latent-dim speedup at the largest measured n; attack
  // wall-clock cold over warm.
  std::size_t n_max = 0;
  for (const auto& r : records) {
    if (r.bench == "latent_dim") n_max = std::max(n_max, r.n);
  }
  double full_s = 0.0, trunc_s = 0.0, cold_s = 0.0, warm_s = 0.0;
  bool estimates_agree = true;
  for (const auto& r : records) {
    if (r.bench == "latent_dim") {
      estimates_agree = estimates_agree && r.value == r.d;
      if (r.n == n_max && r.mode == "full") full_s = r.seconds;
      if (r.n == n_max && r.mode == "truncated") trunc_s = r.seconds;
    } else if (r.bench == "attack") {
      if (r.mode == "cold") cold_s = r.seconds;
      if (r.mode == "warm") warm_s = r.seconds;
    }
  }
  const auto& cold = snmf_attack_result(false);
  const auto& warm = snmf_attack_result(true);
  const bool bit_identical = cold.indexes == warm.indexes &&
                             cold.trapdoors == warm.trapdoors &&
                             cold.best_fit_error == warm.best_fit_error &&
                             cold.telemetry.counter("snmf.selected_restart",
                                                    -1.0) ==
                                 warm.telemetry.counter("snmf.selected_restart",
                                                        -2.0);
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"snmf_truncated_warm_sweep\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"bench\": \"" << r.bench << "\", \"mode\": \"" << r.mode
        << "\", \"n\": " << r.n << ", \"d\": " << r.d
        << ", \"seconds\": " << r.seconds << ", \"value\": " << r.value << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"latent_dim_speedup_full_over_truncated\": "
      << (trunc_s > 0.0 ? full_s / trunc_s : 0.0)
      << ",\n  \"latent_estimates_correct\": "
      << (estimates_agree ? "true" : "false")
      << ",\n  \"attack_wallclock_speedup_cold_over_warm\": "
      << (warm_s > 0.0 ? cold_s / warm_s : 0.0)
      << ",\n  \"attack_outputs_bit_identical\": "
      << (bit_identical ? "true" : "false") << "\n}\n";
}

void BM_LepAttack(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  scheme::Scheme2Options opt;
  opt.record_dim = d;
  sse::SecureKnnSystem system(opt, 10);
  rng::Rng rng(11);
  system.upload_records(data::real_records(d + 5, d, -1.0, 1.0, rng));
  for (std::size_t j = 0; j < d + 3; ++j) {
    system.knn_query(rng.uniform_vec(d, -1.0, 1.0), 3);
  }
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i <= d; ++i) ids.push_back(i);
  const auto view = sse::leak_known_records(system, ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_lep_attack(view));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LepAttack)->Arg(16)->Arg(32)->Arg(64)->Complexity();

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): identical behaviour, plus the
// BENCH_linalg.json / BENCH_opt.json / BENCH_obs.json / BENCH_snmf.json
// dumps after the runs.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_linalg_json("BENCH_linalg.json");
  write_opt_json("BENCH_opt.json");
  write_obs_json("BENCH_obs.json");
  write_snmf_json("BENCH_snmf.json");
  return 0;
}
