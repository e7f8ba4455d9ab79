// core::dispatch_attack with a warm-state store: for every attack kind a
// store miss and a store hit answer exactly like a dispatch without one;
// inline corpora leave no warm entry; an edited corpus file gets a new
// fingerprint and never resurfaces stale state.
#include "core/attack_api.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "data/queries.hpp"
#include "data/quest.hpp"
#include "io/codec.hpp"
#include "rng/rng.hpp"
#include "scheme/split_encryptor.hpp"
#include "sse/system.hpp"

namespace aspe::core {
namespace {

namespace fs = std::filesystem;

class DispatchStore : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("aspe_dispatch_store_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    write_snmf_corpus();
    write_lep_corpus();
    write_mip_corpus();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  void write_vecs(const std::string& name, const std::vector<Vec>& vs) const {
    auto w = io::open_writer(path(name), io::Format::Text);
    for (const Vec& v : vs) w->write_vec(v);
    w->finish();
  }
  void write_ciphers(const std::string& name,
                     const std::vector<scheme::CipherPair>& db) const {
    auto w = io::open_writer(path(name), io::Format::Text);
    w->write_cipher_database(db);
    w->finish();
  }

  /// Binary indexes and trapdoors under one split key (db.txt / td.txt).
  void write_snmf_corpus() {
    constexpr std::size_t d = 8;
    rng::Rng rng(11);
    scheme::SplitEncryptor enc(d, rng);
    std::vector<scheme::CipherPair> db, td;
    for (int i = 0; i < 40; ++i) {
      db.push_back(enc.encrypt_index(to_real(rng.binary_bernoulli(d, 0.25)),
                                     rng));
    }
    for (int j = 0; j < 12; ++j) {
      td.push_back(enc.encrypt_trapdoor(
          to_real(rng.binary_bernoulli(d, 0.25)), rng));
    }
    write_ciphers("db.txt", db);
    write_ciphers("td.txt", td);
  }

  /// A Scheme 2 deployment with its first d + 4 records leaked
  /// (leak.txt / rdb.txt / rtd.txt).
  void write_lep_corpus() {
    constexpr std::size_t d = 6;
    scheme::Scheme2Options opt;
    opt.record_dim = d;
    sse::SecureKnnSystem system(opt, 21);
    rng::Rng rng(22);
    const std::vector<Vec> records = data::real_records(30, d, -2.0, 2.0, rng);
    system.upload_records(records);
    for (int j = 0; j < 8; ++j) {
      (void)system.knn_query(rng.uniform_vec(d, -2.0, 2.0), 3);
    }
    const sse::KpaView view = sse::leak_known_records(system, {0});
    write_vecs("leak.txt", {records.begin(), records.begin() + d + 4});
    write_ciphers("rdb.txt", view.observed.cipher_indexes);
    write_ciphers("rtd.txt", view.observed.cipher_trapdoors);
  }

  /// An MRSE deployment with every record leaked
  /// (mrecords.txt / mdb.txt / mtd.txt).
  void write_mip_corpus() {
    constexpr std::size_t d = 24;
    scheme::MrseOptions opt;
    opt.vocab_dim = d;
    sse::RankedSearchSystem system(opt, 31);
    rng::Rng rng(32);
    data::QuestOptions qopt;
    qopt.num_items = d;
    qopt.density = 0.25;
    qopt.num_transactions = d;
    const std::vector<BitVec> records =
        data::QuestGenerator(qopt, rng.child(1)).generate();
    system.upload_records(records);
    (void)system.ranked_query(rng.binary_with_k_ones(d, 4), 5);
    std::vector<std::size_t> ids(records.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    const sse::MrseKpaView view = sse::leak_known_records(system, ids);
    std::vector<Vec> plain;
    std::vector<scheme::CipherPair> db;
    for (const auto& pair : view.known_pairs) {
      plain.push_back(to_real(pair.record));
      db.push_back(pair.cipher);
    }
    write_vecs("mrecords.txt", plain);
    write_ciphers("mdb.txt", db);
    write_ciphers("mtd.txt", view.observed.cipher_trapdoors);
  }

  AttackRequest snmf_request() const {
    SnmfRequest snmf;
    snmf.db = CorpusRef::from_path(path("db.txt"));
    snmf.trapdoors = CorpusRef::from_path(path("td.txt"));
    return AttackRequest{snmf};
  }
  AttackRequest lep_request() const {
    LepRequest lep;
    lep.known_plain = CorpusRef::from_path(path("leak.txt"));
    lep.db = CorpusRef::from_path(path("rdb.txt"));
    lep.trapdoors = CorpusRef::from_path(path("rtd.txt"));
    return AttackRequest{lep};
  }
  AttackRequest mip_request() const {
    MipRequest mip;
    mip.known_plain = CorpusRef::from_path(path("mrecords.txt"));
    mip.db = CorpusRef::from_path(path("mdb.txt"));
    mip.trapdoors = CorpusRef::from_path(path("mtd.txt"));
    return AttackRequest{mip};
  }

  /// The same request with every corpus shipped inline.
  static AttackRequest inlined(AttackRequest req) {
    const auto vecs = [](CorpusRef& ref) {
      ref = CorpusRef::inline_vecs(*ref.load_vecs("test"));
    };
    const auto ciphers = [](CorpusRef& ref) {
      ref = CorpusRef::inline_ciphers(*ref.load_ciphers("test"));
    };
    std::visit(
        [&](auto& r) {
          using T = std::decay_t<decltype(r)>;
          if constexpr (!std::is_same_v<T, SnmfRequest>) vecs(r.known_plain);
          ciphers(r.db);
          ciphers(r.trapdoors);
        },
        req.request);
    return req;
  }

  static void expect_same(const AttackResponse& a, const AttackResponse& b) {
    ASSERT_TRUE(a.ok()) << a.message;
    ASSERT_TRUE(b.ok()) << b.message;
    EXPECT_EQ(a.status, b.status);
    ASSERT_EQ(a.result.index(), b.result.index());
    if (std::holds_alternative<LepResult>(a.result)) {
      EXPECT_EQ(a.lep().records, b.lep().records);
      EXPECT_EQ(a.lep().queries, b.lep().queries);
      EXPECT_EQ(a.lep().trapdoors, b.lep().trapdoors);
      EXPECT_EQ(a.lep().indexes, b.lep().indexes);
    } else if (std::holds_alternative<MipAttackResult>(a.result)) {
      EXPECT_EQ(a.mip().found, b.mip().found);
      EXPECT_EQ(a.mip().query, b.mip().query);
      EXPECT_EQ(a.mip().rhat, b.mip().rhat);
      EXPECT_EQ(a.mip().that, b.mip().that);
    } else {
      EXPECT_EQ(a.snmf().indexes, b.snmf().indexes);
      EXPECT_EQ(a.snmf().trapdoors, b.snmf().trapdoors);
      EXPECT_EQ(a.snmf().best_fit_error, b.snmf().best_fit_error);
      EXPECT_EQ(a.telemetry.counter("snmf.estimated_rank"),
                b.telemetry.counter("snmf.estimated_rank"));
    }
  }

  /// Cold, then a store miss, then a store hit on `kind`: all three agree.
  /// Returns the cold response.
  static AttackResponse expect_miss_and_hit_match_cold(
      const AttackRequest& req, WarmKind kind) {
    const AttackResponse cold = dispatch_attack(req);
    WarmStore store;
    expect_same(dispatch_attack(req, {}, &store), cold);
    EXPECT_EQ(store.stats()[kind].misses, 1u);
    EXPECT_EQ(store.stats()[kind].hits, 0u);
    expect_same(dispatch_attack(req, {}, &store), cold);
    EXPECT_EQ(store.stats()[kind].hits, 1u);
    EXPECT_GT(store.stats()[WarmKind::Corpus].hits, 0u);
    return cold;
  }

  fs::path dir_;
};

TEST_F(DispatchStore, LepMissAndHitMatchCold) {
  const AttackResponse cold =
      expect_miss_and_hit_match_cold(lep_request(), WarmKind::Lep);
  ASSERT_TRUE(cold.ok()) << cold.message;
  EXPECT_EQ(cold.lep().queries.size(), 8u);
}

TEST_F(DispatchStore, MipMissAndHitMatchCold) {
  const AttackResponse cold =
      expect_miss_and_hit_match_cold(mip_request(), WarmKind::MipBasis);
  ASSERT_TRUE(cold.ok()) << cold.message;
  EXPECT_TRUE(cold.mip().found);
}

TEST_F(DispatchStore, SnmfMissAndHitMatchCold) {
  // rank 0: the estimate goes through the store's rank kind as well.
  const AttackResponse cold =
      expect_miss_and_hit_match_cold(snmf_request(), WarmKind::Score);
  ASSERT_TRUE(cold.ok()) << cold.message;
  EXPECT_EQ(cold.snmf().indexes.size(), 40u);
  AttackRequest fixed = snmf_request();
  std::get<SnmfRequest>(fixed.request).options.rank = 8;
  expect_miss_and_hit_match_cold(fixed, WarmKind::Score);
}

TEST_F(DispatchStore, SnmfSessionMissMatchesCold) {
  AttackRequest req = snmf_request();
  std::get<SnmfRequest>(req.request).reuse_session = true;
  const AttackResponse cold = dispatch_attack(req);
  WarmStore store;
  // A fresh CoA session's first attack is the cold restart sweep; the
  // next job resumes it (same fixed point, not bitwise — hence opt-in).
  expect_same(dispatch_attack(req, {}, &store), cold);
  ASSERT_TRUE(dispatch_attack(req, {}, &store).ok());
  EXPECT_EQ(store.stats()[WarmKind::Coa].hits, 1u);
}

TEST_F(DispatchStore, InlineCorporaLeaveNoWarmEntry) {
  WarmStore store;
  for (const AttackRequest& req :
       {lep_request(), mip_request(), snmf_request()}) {
    const AttackRequest inline_req = inlined(req);
    const AttackResponse cold = dispatch_attack(req);
    expect_same(dispatch_attack(inline_req, {}, &store), cold);
    expect_same(dispatch_attack(inline_req, {}, &store), cold);
  }
  const WarmStore::Stats st = store.stats();
  EXPECT_EQ(st.bytes, 0u);
  for (const WarmStore::KindStats& kind : st.kinds) {
    EXPECT_EQ(kind.hits + kind.misses, 0u);
  }
}

TEST_F(DispatchStore, EditedCorpusGetsNewFingerprint) {
  WarmStore store;
  const AttackResponse first = dispatch_attack(snmf_request(), {}, &store);
  ASSERT_TRUE(first.ok()) << first.message;

  // Rewrite db.txt without its last record: size and mtime change, so the
  // corpus, score matrix and rank estimate all miss.
  const auto db = io::open_reader(path("db.txt"))->read_cipher_database();
  write_ciphers("db.txt", {db.begin(), db.end() - 1});
  const AttackResponse edited = dispatch_attack(snmf_request(), {}, &store);
  expect_same(edited, dispatch_attack(snmf_request()));
  EXPECT_EQ(edited.snmf().indexes.size(), first.snmf().indexes.size() - 1);
  EXPECT_EQ(store.stats()[WarmKind::Score].misses, 2u);
  EXPECT_EQ(store.stats()[WarmKind::Rank].misses, 2u);
  EXPECT_EQ(store.stats()[WarmKind::Score].hits, 0u);
}

}  // namespace
}  // namespace aspe::core
