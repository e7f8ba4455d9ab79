#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/attack_api.hpp"
#include "core/lep.hpp"
#include "core/mip_attack.hpp"
#include "core/snmf_attack.hpp"
#include "data/queries.hpp"
#include "data/quest.hpp"
#include "obs/sinks.hpp"
#include "par/thread_pool.hpp"
#include "rng/rng.hpp"
#include "scheme/split_encryptor.hpp"
#include "sse/system.hpp"

namespace aspe {
namespace {

using obs::MemorySink;
using obs::ScopedRecording;
using obs::SpanRecord;

const SpanRecord* find_span(const std::vector<SpanRecord>& spans,
                            const std::string& name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ------------------------------------------------------------- primitives

TEST(Obs, DisabledByDefault) {
  EXPECT_FALSE(obs::enabled());
  // All instrumentation sites must be harmless no-ops without a recording.
  obs::Span span("obs_test/noop");
  obs::counter_add("obs_test/noop_counter", 1.0);
  obs::gauge_set("obs_test/noop_gauge", 1.0);
  obs::instant("obs_test/noop_instant");
  EXPECT_EQ(obs::current_span_id(), 0u);
}

TEST(Obs, NullSinkYieldsPassiveGuard) {
  ScopedRecording rec(nullptr);
  EXPECT_FALSE(rec.active());
  EXPECT_FALSE(obs::enabled());
  EXPECT_TRUE(rec.finish().empty());
}

TEST(Obs, SpanNestingAndOrdering) {
  MemorySink sink;
  {
    ScopedRecording rec(&sink);
    ASSERT_TRUE(rec.active());
    ASSERT_TRUE(obs::enabled());
    obs::Span a("obs_test/a");
    {
      obs::Span b("obs_test/b");
      { obs::Span c("obs_test/c"); }
    }
    { obs::Span d("obs_test/d"); }
  }
  ASSERT_EQ(sink.recordings(), 1u);
  const auto& spans = sink.spans();
  ASSERT_EQ(spans.size(), 4u);

  const auto* a = find_span(spans, "obs_test/a");
  const auto* b = find_span(spans, "obs_test/b");
  const auto* c = find_span(spans, "obs_test/c");
  const auto* d = find_span(spans, "obs_test/d");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  ASSERT_NE(d, nullptr);

  // Parent links: b and d nest under a, c nests under b, a is a root.
  EXPECT_EQ(a->parent, 0u);
  EXPECT_EQ(b->parent, a->id);
  EXPECT_EQ(c->parent, b->id);
  EXPECT_EQ(d->parent, a->id);

  // Merged spans are sorted by (start_ns, id) and each span contains its
  // children's interval.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_TRUE(spans[i - 1].start_ns < spans[i].start_ns ||
                (spans[i - 1].start_ns == spans[i].start_ns &&
                 spans[i - 1].id < spans[i].id));
  }
  EXPECT_LE(a->start_ns, b->start_ns);
  EXPECT_GE(a->end_ns, b->end_ns);
  EXPECT_LE(b->start_ns, c->start_ns);
  EXPECT_GE(b->end_ns, c->end_ns);
  for (const auto& s : spans) EXPECT_LE(s.start_ns, s.end_ns);
}

TEST(Obs, NestedRecordingIsPassive) {
  MemorySink outer_sink, inner_sink;
  {
    ScopedRecording outer(&outer_sink);
    ASSERT_TRUE(outer.active());
    {
      ScopedRecording inner(&inner_sink);
      EXPECT_FALSE(inner.active());
      EXPECT_TRUE(inner.finish().empty());
      // Work done under the passive guard still lands in the outer recording.
      obs::Span span("obs_test/inner_work");
    }
  }
  EXPECT_EQ(inner_sink.recordings(), 0u);
  ASSERT_EQ(outer_sink.recordings(), 1u);
  EXPECT_NE(find_span(outer_sink.spans(), "obs_test/inner_work"), nullptr);
}

TEST(Obs, FinishIsIdempotentAndStopsCollection) {
  MemorySink sink;
  ScopedRecording rec(&sink);
  obs::counter_add("obs_test/before", 1.0);
  const auto summary = rec.finish();
  EXPECT_EQ(summary.counters.count("obs_test/before"), 1u);
  EXPECT_FALSE(obs::enabled());
  obs::counter_add("obs_test/after", 1.0);
  EXPECT_TRUE(rec.finish().empty());  // second finish: no double delivery
  EXPECT_EQ(sink.recordings(), 1u);
  EXPECT_EQ(sink.counters().count("obs_test/after"), 0u);
}

TEST(Obs, CounterMergeAcrossThreads) {
  const std::size_t n = 4096;
  MemorySink sink;
  {
    ScopedRecording rec(&sink);
    par::default_pool().run_chunked(
        0, n, 64,
        [](std::size_t lo, std::size_t hi) {
          obs::Span span("obs_test/chunk");
          obs::counter_add("obs_test/items",
                           static_cast<double>(hi - lo));
        },
        4);
  }
  // Per-thread buffers merge by summation: no updates lost, no double count.
  EXPECT_DOUBLE_EQ(sink.counter("obs_test/items"), static_cast<double>(n));
  std::size_t chunk_spans = 0;
  for (const auto& s : sink.spans()) {
    if (s.name == "obs_test/chunk") ++chunk_spans;
  }
  EXPECT_EQ(chunk_spans, n / 64);
}

TEST(Obs, PoolWorkersInheritDispatchingSpan) {
  MemorySink sink;
  {
    ScopedRecording rec(&sink);
    obs::Span dispatch("obs_test/dispatch");
    par::default_pool().run_chunked(
        0, 256, 16,
        [](std::size_t, std::size_t) { obs::Span span("obs_test/chunk"); },
        4);
  }
  const auto* dispatch = find_span(sink.spans(), "obs_test/dispatch");
  ASSERT_NE(dispatch, nullptr);
  // Every chunk span attaches to the dispatching span, whichever thread ran
  // it, so the trace stays a single tree.
  for (const auto& s : sink.spans()) {
    if (s.name == "obs_test/chunk") {
      EXPECT_EQ(s.parent, dispatch->id);
    }
  }
}

TEST(Obs, GaugeLastWriteWins) {
  MemorySink sink;
  {
    ScopedRecording rec(&sink);
    obs::gauge_set("obs_test/gauge", 1.0);
    obs::gauge_set("obs_test/gauge", 7.0);
  }
  ASSERT_EQ(sink.gauges().count("obs_test/gauge"), 1u);
  EXPECT_DOUBLE_EQ(sink.gauges().at("obs_test/gauge"), 7.0);
}

TEST(Obs, InstantEventsAreZeroLengthSpans) {
  MemorySink sink;
  {
    ScopedRecording rec(&sink);
    obs::instant("obs_test/marker");
  }
  const auto* marker = find_span(sink.spans(), "obs_test/marker");
  ASSERT_NE(marker, nullptr);
  EXPECT_EQ(marker->start_ns, marker->end_ns);
}

TEST(Obs, AggregateSpansOrdersByTotalTime) {
  std::vector<SpanRecord> spans;
  spans.push_back({"short", 1, 0, 0, 0, 100});
  spans.push_back({"long", 2, 0, 0, 0, 1000});
  spans.push_back({"short", 3, 0, 0, 200, 300});
  const auto stats = obs::aggregate_spans(spans);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "long");
  EXPECT_EQ(stats[0].count, 1u);
  EXPECT_EQ(stats[1].name, "short");
  EXPECT_EQ(stats[1].count, 2u);
  EXPECT_DOUBLE_EQ(stats[1].total_seconds, 200e-9);
}

// ---------------------------------------------------------- JSON-lines sink

TEST(Obs, JsonLinesSinkRoundTrip) {
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  {
    obs::JsonLinesSink sink(path);
    ASSERT_TRUE(sink.ok());
    ScopedRecording rec(&sink);
    {
      obs::Span outer("obs_test/outer");
      { obs::Span inner("obs_test/inner"); }
      obs::instant("obs_test/mark");
      obs::counter_add("obs_test/count", 3.0);
    }
    rec.finish();
    sink.close();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines.front(), "[");
  EXPECT_EQ(lines.back(), "]");

  std::size_t complete = 0, instants = 0, counters = 0;
  bool saw_outer = false, saw_inner = false;
  for (const auto& line : lines) {
    if (line.find("\"ph\":\"X\"") != std::string::npos) ++complete;
    if (line.find("\"ph\":\"i\"") != std::string::npos) ++instants;
    if (line.find("\"ph\":\"C\"") != std::string::npos) ++counters;
    if (line.find("obs_test/outer") != std::string::npos) saw_outer = true;
    if (line.find("obs_test/inner") != std::string::npos) saw_inner = true;
    // Event lines are one JSON object each, optionally comma-terminated —
    // the format chrome://tracing and perfetto both accept.
    if (line.find("\"ph\"") != std::string::npos) {
      EXPECT_EQ(line.front(), '{');
      const std::string body =
          line.back() == ',' ? line.substr(0, line.size() - 1) : line;
      EXPECT_EQ(body.back(), '}');
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_GE(counters, 1u);
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  std::remove(path.c_str());
}

// ------------------------------------------------- attacks under telemetry

sse::KpaView make_lep_view(sse::SecureKnnSystem& system, std::size_t d,
                           std::uint64_t seed) {
  rng::Rng rng(seed);
  system.upload_records(data::real_records(d + 6, d, -2.0, 2.0, rng));
  for (std::size_t j = 0; j < d + 4; ++j) {
    system.knn_query(rng.uniform_vec(d, -2.0, 2.0), 3);
  }
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i <= d; ++i) ids.push_back(i);
  return sse::leak_known_records(system, ids);
}

sse::MrseKpaView make_mip_view(sse::RankedSearchSystem& system, std::size_t d,
                               std::size_t m, std::uint64_t seed) {
  rng::Rng rng(seed);
  data::QuestOptions qopt;
  qopt.num_items = d;
  qopt.density = 0.3;
  qopt.num_transactions = m;
  system.upload_records(data::QuestGenerator(qopt, rng.child(1)).generate());
  system.ranked_query(rng.binary_with_k_ones(d, 3), 5);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < m; ++i) ids.push_back(i);
  return sse::leak_known_records(system, ids);
}

linalg::Matrix make_snmf_scores(std::size_t d, std::uint64_t seed) {
  rng::Rng rng(seed);
  linalg::Matrix w(d, 2 * d), h(d, 2 * d);
  for (auto& x : w.data()) x = rng.bernoulli(0.3) ? 1.0 : 0.0;
  for (auto& x : h.data()) x = rng.bernoulli(0.3) ? 1.0 : 0.0;
  return w.transpose() * h;
}

TEST(Obs, LepAttackBitIdenticalWithAndWithoutSink) {
  const std::size_t d = 8;
  scheme::Scheme2Options opt;
  opt.record_dim = d;
  sse::SecureKnnSystem system(opt, 21);
  const auto view = make_lep_view(system, d, 22);

  const auto plain = core::run_lep_attack(view);
  MemorySink sink;
  core::ExecContext ctx;
  ctx.sink = &sink;
  const auto traced = core::run_lep_attack(view, {}, ctx);
  core::ExecContext ctx4;
  ctx4.threads = 4;
  ctx4.sink = &sink;
  const auto traced4 = core::run_lep_attack(view, {}, ctx4);

  // Telemetry is observational only: bitwise-identical recovery regardless
  // of the sink or the thread count.
  for (const auto* other : {&traced, &traced4}) {
    EXPECT_EQ(plain.trapdoors, other->trapdoors);
    EXPECT_EQ(plain.queries, other->queries);
    EXPECT_EQ(plain.query_multipliers, other->query_multipliers);
    EXPECT_EQ(plain.indexes, other->indexes);
    EXPECT_EQ(plain.records, other->records);
  }

  // Driver counters are present even with no sink attached. The recorded
  // dimension is the cipher-space width (record dim + padding).
  EXPECT_GE(plain.telemetry.counter("lep.dimension"),
            static_cast<double>(d));
  EXPECT_GT(plain.telemetry.counter("lep.trapdoor_solves"), 0.0);
  EXPECT_GT(plain.telemetry.wall_seconds, 0.0);
  EXPECT_TRUE(plain.telemetry.spans.empty());
  EXPECT_FALSE(traced.telemetry.spans.empty());
}

TEST(Obs, SnmfAttackBitIdenticalWithAndWithoutSink) {
  const auto scores = make_snmf_scores(6, 31);
  core::SnmfAttackOptions opt;
  opt.rank = 6;
  opt.restarts = 2;
  opt.nmf.max_iterations = 30;

  const auto plain =
      core::run_snmf_attack(scores, opt, core::ExecContext{.seed = 33});
  MemorySink sink;
  core::ExecContext ctx{.seed = 33};
  ctx.sink = &sink;
  const auto traced = core::run_snmf_attack(scores, opt, ctx);
  core::ExecContext ctx4{.seed = 33};
  ctx4.threads = 4;
  ctx4.sink = &sink;
  const auto traced4 = core::run_snmf_attack(scores, opt, ctx4);

  for (const auto* other : {&traced, &traced4}) {
    EXPECT_EQ(plain.indexes, other->indexes);
    EXPECT_EQ(plain.trapdoors, other->trapdoors);
    EXPECT_DOUBLE_EQ(plain.best_fit_error, other->best_fit_error);
  }
  EXPECT_DOUBLE_EQ(plain.telemetry.counter("snmf.restarts_run"), 2.0);
  EXPECT_FALSE(traced.telemetry.spans.empty());
}

TEST(Obs, MipAttackBitIdenticalWithAndWithoutSink) {
  const std::size_t d = 10, m = 10;
  scheme::MrseOptions opt;
  opt.vocab_dim = d;
  sse::RankedSearchSystem system(opt, 41);
  const auto view = make_mip_view(system, d, m, 42);

  const auto plain = core::run_mip_attack(view, 0, opt.mu, opt.sigma);
  MemorySink sink;
  core::ExecContext ctx;
  ctx.sink = &sink;
  const auto traced = core::run_mip_attack(view, 0, opt.mu, opt.sigma, {}, ctx);
  core::ExecContext ctx4;
  ctx4.threads = 4;
  ctx4.sink = &sink;
  const auto traced4 =
      core::run_mip_attack(view, 0, opt.mu, opt.sigma, {}, ctx4);

  for (const auto* other : {&traced, &traced4}) {
    EXPECT_EQ(plain.found, other->found);
    EXPECT_EQ(plain.query, other->query);
    EXPECT_DOUBLE_EQ(plain.rhat, other->rhat);
    EXPECT_DOUBLE_EQ(plain.that, other->that);
    EXPECT_EQ(plain.status, other->status);
  }
  EXPECT_GT(plain.telemetry.counter("mip.model_rows"), 0.0);
  EXPECT_FALSE(traced.telemetry.spans.empty());
}

TEST(Obs, MipStatusReflectsHowTheAnswerWasProduced) {
  // A default-constructed result has run nothing.
  EXPECT_EQ(core::MipAttackResult{}.status, opt::MipStatus::NotRun);

  const std::size_t d = 10, m = 10;
  scheme::MrseOptions sopt;
  sopt.vocab_dim = d;
  sse::RankedSearchSystem system(sopt, 41);
  const auto view = make_mip_view(system, d, m, 42);

  // The default configuration answers via the primal heuristic.
  const auto res = core::run_mip_attack(view, 0, sopt.mu, sopt.sigma);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.status, opt::MipStatus::Heuristic);

  // With the heuristic disabled, branch and bound answers and reports the
  // solver's own status (optimal, or feasible if a budget stopped the
  // search early) — never the heuristic marker.
  core::MipAttackOptions no_heur;
  no_heur.use_heuristic = false;
  const auto exact = core::run_mip_attack(view, 0, sopt.mu, sopt.sigma,
                                          no_heur);
  ASSERT_TRUE(exact.found);
  EXPECT_TRUE(exact.status == opt::MipStatus::Optimal ||
              exact.status == opt::MipStatus::Feasible);
}

TEST(Obs, RootSpanCoversNearlyAllAttackWallTime) {
  // The acceptance bar for --trace-json: the span tree accounts for >= 90%
  // of each attack's wall time. The root span alone must already do so.
  // Both sides are summed over several runs, and the LEP attack runs at
  // d = 64, so that one preemption between the attack's stopwatch and its
  // root span cannot decide a ratio of millisecond figures.
  const auto check = [](const auto& attack, const char* root_name) {
    constexpr int kRuns = 5;
    double root_seconds = 0.0;
    double wall_seconds = 0.0;
    for (int run = 0; run < kRuns; ++run) {
      MemorySink sink;
      core::ExecContext ctx{.seed = 33};
      ctx.sink = &sink;
      wall_seconds += attack(ctx).wall_seconds;
      const auto* root = find_span(sink.spans(), root_name);
      ASSERT_NE(root, nullptr) << root_name;
      EXPECT_EQ(root->parent, 0u) << root_name;
      root_seconds += static_cast<double>(root->end_ns - root->start_ns) * 1e-9;
    }
    EXPECT_GE(root_seconds, 0.9 * wall_seconds) << root_name;
  };

  {
    const std::size_t d = 64;
    scheme::Scheme2Options opt;
    opt.record_dim = d;
    sse::SecureKnnSystem system(opt, 21);
    const auto view = make_lep_view(system, d, 22);
    check([&](const core::ExecContext& ctx) {
      return core::run_lep_attack(view, {}, ctx).telemetry;
    }, "lep/attack");
  }
  {
    const auto scores = make_snmf_scores(6, 31);
    core::SnmfAttackOptions opt;
    opt.rank = 6;
    opt.restarts = 2;
    opt.nmf.max_iterations = 30;
    check([&](const core::ExecContext& ctx) {
      return core::run_snmf_attack(scores, opt, ctx).telemetry;
    }, "snmf/attack");
  }
  {
    const std::size_t d = 10, m = 10;
    scheme::MrseOptions opt;
    opt.vocab_dim = d;
    sse::RankedSearchSystem system(opt, 41);
    const auto view = make_mip_view(system, d, m, 42);
    check([&](const core::ExecContext& ctx) {
      return core::run_mip_attack(view, 0, opt.mu, opt.sigma, {}, ctx)
          .telemetry;
    }, "mip/attack");
  }
}

TEST(Obs, SnmfDispatchRecordsOneTreeWithRankAndAnlsSpans) {
  // A cold SNMF dispatch with the rank estimated: the score build, the
  // truncated-SVD rank estimate and the ANLS half-steps all land in the
  // job's one recording, as one tree under its "snmf/attack" root.
  const std::size_t d = 8;
  rng::Rng rng(51);
  scheme::SplitEncryptor enc(d, rng);
  std::vector<scheme::CipherPair> db, trapdoors;
  for (std::size_t i = 0; i < 200; ++i) {
    db.push_back(enc.encrypt_index(to_real(rng.binary_bernoulli(d, 0.3)), rng));
  }
  for (std::size_t j = 0; j < 160; ++j) {
    trapdoors.push_back(
        enc.encrypt_trapdoor(to_real(rng.binary_bernoulli(d, 0.3)), rng));
  }
  core::SnmfRequest req;
  req.db = core::CorpusRef::inline_ciphers(std::move(db));
  req.trapdoors = core::CorpusRef::inline_ciphers(std::move(trapdoors));
  req.options.restarts = 1;
  req.options.nmf.max_iterations = 3;
  MemorySink sink;
  core::ExecContext ctx{.seed = 7};
  ctx.sink = &sink;
  const core::AttackResponse resp =
      core::dispatch_attack(core::AttackRequest{req}, ctx);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_GT(resp.telemetry.counter("snmf.estimated_rank"), 0.0);

  const auto& spans = sink.spans();
  std::map<std::uint64_t, const SpanRecord*> by_id;
  std::size_t roots = 0;
  for (const auto& s : spans) {
    by_id[s.id] = &s;
    roots += s.parent == 0 ? 1 : 0;
  }
  EXPECT_EQ(roots, 1u);
  const auto* root = find_span(spans, "snmf/attack");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);
  for (const auto& s : spans) {
    const SpanRecord* up = &s;
    while (up->parent != 0 && by_id.count(up->parent) > 0) {
      up = by_id.at(up->parent);
    }
    EXPECT_EQ(up, root) << s.name << " is not under the root";
  }
  for (const char* name : {"snmf/score_matrix", "svd/truncated",
                           "nmf/update_h", "nmf/update_w"}) {
    EXPECT_NE(find_span(spans, name), nullptr) << name;
  }
  // The recording covers the whole job, but wall_seconds stays the
  // attack's own time, a part of the root span.
  EXPECT_LE(resp.telemetry.wall_seconds,
            static_cast<double>(root->end_ns - root->start_ns) * 1e-9);
}

TEST(Obs, AbsorbMergesRecordedCountersIntoTelemetry) {
  const auto scores = make_snmf_scores(6, 31);
  core::SnmfAttackOptions opt;
  opt.rank = 6;
  opt.restarts = 2;
  opt.nmf.max_iterations = 30;
  MemorySink sink;
  core::ExecContext ctx{.seed = 33};
  ctx.sink = &sink;
  const auto res = core::run_snmf_attack(scores, opt, ctx);

  // With a sink attached, the result telemetry also carries the lower-layer
  // counters recorded during the run (nmf, linalg), not just the driver's.
  EXPECT_GT(res.telemetry.counter("nmf.nnls_solves"), 0.0);
  EXPECT_GT(res.telemetry.counter("nnls.factor_rows"), 0.0);
  EXPECT_GT(res.telemetry.counter("linalg.gemm.flops"), 0.0);
  // And the sink received the same recording.
  EXPECT_GT(sink.counter("nmf.nnls_solves"), 0.0);
  EXPECT_EQ(sink.recordings(), 1u);
}

}  // namespace
}  // namespace aspe
