// aspe::svc — protocol robustness, daemon queue semantics, warm-cache
// bit-identity, and end-to-end daemon-vs-CLI equivalence over a real
// Unix-domain socket.
#include "svc/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "io/codec.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/wire.hpp"

namespace aspe::svc {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// --------------------------------------------------------------- wire layer

TEST(SvcWire, TruncatedBufferThrows) {
  WireWriter w;
  w.u64(42);
  auto bytes = w.take();
  bytes.pop_back();
  WireReader r(bytes);
  EXPECT_THROW(r.u64(), io::IoError);
}

TEST(SvcWire, CountGuardsOversizedLengthPrefix) {
  // A length prefix of 2^62 must be rejected by the checked_mul guard
  // before any allocation is attempted.
  WireWriter w;
  w.u64(std::uint64_t{1} << 62);
  WireReader r(w.bytes());
  EXPECT_THROW(r.count(/*elem_bytes=*/16, "test array"), io::IoError);
}

TEST(SvcWire, CountRejectsPrefixBeyondBuffer) {
  // Plausible count, but the buffer does not hold that many elements: the
  // reader must refuse up front instead of reserving the claimed size.
  WireWriter w;
  w.u64(1000);
  WireReader r(w.bytes());
  EXPECT_THROW(r.count(/*elem_bytes=*/8, "test array"), io::IoError);
}

// ----------------------------------------------------------- payload codecs

TEST(SvcProtocol, SubmitPayloadRoundTripsEveryKind) {
  JobOptions jopts;
  jopts.threads = 4;
  jopts.seed = 99;
  jopts.deadline_ms = 1500;
  jopts.want_telemetry = true;

  // LEP with path refs.
  {
    core::AttackRequest req;
    core::LepRequest lep;
    lep.known_plain = core::CorpusRef::from_path("/tmp/leak.txt");
    lep.db = core::CorpusRef::from_path("/tmp/db.bin");
    lep.trapdoors = core::CorpusRef::from_path("/tmp/td.txt");
    lep.options.independence_tol = 1e-7;
    req.request = lep;

    const auto payload = build_submit_payload(req, jopts);
    WireReader r(payload);
    const JobOptions jo = decode_job_options(r);
    const core::AttackRequest back = decode_request(r);
    r.expect_end("submit payload");
    EXPECT_EQ(jo.threads, 4u);
    EXPECT_EQ(jo.seed, 99u);
    EXPECT_EQ(jo.deadline_ms, 1500u);
    EXPECT_TRUE(jo.want_telemetry);
    ASSERT_EQ(back.kind(), core::AttackKind::Lep);
    const auto& l = std::get<core::LepRequest>(back.request);
    EXPECT_EQ(l.known_plain.path, "/tmp/leak.txt");
    EXPECT_EQ(l.db.path, "/tmp/db.bin");
    EXPECT_EQ(l.trapdoors.path, "/tmp/td.txt");
    EXPECT_DOUBLE_EQ(l.options.independence_tol, 1e-7);
  }

  // MIP with inline payloads.
  {
    core::AttackRequest req;
    core::MipRequest mip;
    mip.known_plain = core::CorpusRef::inline_vecs({{1.0, 0.0}, {0.0, 1.0}});
    scheme::CipherPair c;
    c.a = {1.5, -2.5};
    c.b = {0.25, 4.0};
    mip.db = core::CorpusRef::inline_ciphers({c});
    mip.trapdoors = core::CorpusRef::inline_ciphers({c, c});
    mip.trapdoor_id = 1;
    mip.mu = 2.0;
    mip.sigma = 0.75;
    mip.options.l = 4.5;
    mip.options.solver.max_nodes = 777;
    req.request = mip;

    const auto payload = build_submit_payload(req, {});
    WireReader r(payload);
    (void)decode_job_options(r);
    const core::AttackRequest back = decode_request(r);
    r.expect_end("submit payload");
    ASSERT_EQ(back.kind(), core::AttackKind::Mip);
    const auto& m = std::get<core::MipRequest>(back.request);
    ASSERT_NE(m.known_plain.vecs, nullptr);
    EXPECT_EQ((*m.known_plain.vecs)[1][1], 1.0);
    ASSERT_NE(m.trapdoors.ciphers, nullptr);
    ASSERT_EQ(m.trapdoors.ciphers->size(), 2u);
    EXPECT_EQ((*m.trapdoors.ciphers)[0].b[1], 4.0);
    EXPECT_EQ(m.trapdoor_id, 1u);
    EXPECT_DOUBLE_EQ(m.mu, 2.0);
    EXPECT_DOUBLE_EQ(m.sigma, 0.75);
    EXPECT_DOUBLE_EQ(m.options.l, 4.5);
    EXPECT_EQ(m.options.solver.max_nodes, 777u);
  }

  // SNMF options and the reuse_session hint.
  {
    core::AttackRequest req;
    core::SnmfRequest snmf;
    snmf.db = core::CorpusRef::from_path("db");
    snmf.trapdoors = core::CorpusRef::from_path("td");
    snmf.options.rank = 12;
    snmf.options.restarts = 5;
    snmf.options.nmf.max_iterations = 111;
    snmf.reuse_session = true;
    req.request = snmf;

    const auto payload = build_submit_payload(req, {});
    WireReader r(payload);
    (void)decode_job_options(r);
    const core::AttackRequest back = decode_request(r);
    ASSERT_EQ(back.kind(), core::AttackKind::Snmf);
    const auto& s = std::get<core::SnmfRequest>(back.request);
    EXPECT_EQ(s.options.rank, 12u);
    EXPECT_EQ(s.options.restarts, 5u);
    EXPECT_EQ(s.options.nmf.max_iterations, 111u);
    EXPECT_TRUE(s.reuse_session);
  }
}

TEST(SvcProtocol, ResponseRoundTripsResultAndTelemetry) {
  core::AttackResponse resp;
  resp.status = core::AttackStatus::Ok;
  resp.error = core::ErrorCode::Ok;
  core::SnmfAttackResult res;
  res.indexes = {BitVec{1, 0, 1}, BitVec{0, 1, 1}};
  res.trapdoors = {BitVec{1, 1, 0}};
  res.best_fit_error = 0.125;
  resp.result = res;
  resp.telemetry.wall_seconds = 1.5;
  resp.telemetry.counters["snmf.estimated_rank"] = 3;

  WireWriter w;
  encode_response(w, resp);
  WireReader r(w.bytes());
  const core::AttackResponse back = decode_response(r);
  r.expect_end("response payload");
  EXPECT_EQ(back.status, core::AttackStatus::Ok);
  ASSERT_NO_THROW((void)back.snmf());
  EXPECT_EQ(back.snmf().indexes, res.indexes);
  EXPECT_EQ(back.snmf().trapdoors, res.trapdoors);
  EXPECT_DOUBLE_EQ(back.snmf().best_fit_error, 0.125);
  EXPECT_DOUBLE_EQ(back.telemetry.wall_seconds, 1.5);
  EXPECT_EQ(back.telemetry.counter("snmf.estimated_rank"), 3);
}

TEST(SvcProtocol, FailedResponseRoundTripsTypedError) {
  core::AttackResponse resp;
  resp.status = core::AttackStatus::Failed;
  resp.error = core::ErrorCode::NotReady;
  resp.message = "LEP: could not find d+1 independent pairs";

  WireWriter w;
  encode_response(w, resp);
  WireReader r(w.bytes());
  const core::AttackResponse back = decode_response(r);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.error, core::ErrorCode::NotReady);
  EXPECT_EQ(back.message, resp.message);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(back.result));
}

TEST(SvcProtocol, TruncatedSubmitPayloadRejected) {
  core::AttackRequest req;
  core::SnmfRequest snmf;
  snmf.db = core::CorpusRef::from_path("/tmp/db.txt");
  snmf.trapdoors = core::CorpusRef::from_path("/tmp/td.txt");
  req.request = snmf;
  auto payload = build_submit_payload(req, {});
  // Every proper prefix must be rejected, never mis-decoded. (Checking a
  // few representative cuts keeps the test fast.)
  for (const std::size_t cut : {payload.size() - 1, payload.size() / 2,
                                std::size_t{1}}) {
    std::vector<std::uint8_t> short_payload(payload.begin(),
                                            payload.begin() + cut);
    WireReader r(short_payload);
    EXPECT_THROW(
        {
          (void)decode_job_options(r);
          (void)decode_request(r);
          r.expect_end("submit payload");
        },
        io::IoError)
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(SvcProtocol, UnknownRequestTagRejected) {
  WireWriter w;
  encode_job_options(w, {});
  w.u8(9);  // no such AttackKind
  WireReader r(w.bytes());
  (void)decode_job_options(r);
  EXPECT_THROW((void)decode_request(r), io::IoError);
}

// ------------------------------------------------------------ daemon queue

core::AttackRequest nonexistent_request() {
  core::AttackRequest req;
  core::SnmfRequest snmf;
  snmf.db = core::CorpusRef::from_path("/nonexistent/aspe-db");
  snmf.trapdoors = core::CorpusRef::from_path("/nonexistent/aspe-td");
  req.request = snmf;
  return req;
}

TEST(SvcDaemon, DeadlineExpiredInQueueIsBudget) {
  DaemonOptions dopt;
  dopt.workers = 0;  // stepping mode: jobs run only via run_one()
  Daemon daemon(dopt);

  JobOptions jopts;
  jopts.deadline_ms = 1;
  core::AttackResponse got;
  bool delivered = false;
  daemon.submit(nonexistent_request(), jopts,
                [&](std::uint64_t, core::AttackResponse&& resp) {
                  got = std::move(resp);
                  delivered = true;
                });
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(daemon.run_one());
  ASSERT_TRUE(delivered);
  EXPECT_EQ(got.status, core::AttackStatus::Failed);
  EXPECT_EQ(got.error, core::ErrorCode::Budget);
  EXPECT_NE(got.message.find("deadline"), std::string::npos);
  EXPECT_EQ(daemon.stats().expired, 1u);
  EXPECT_EQ(daemon.stats().completed, 0u);
}

TEST(SvcDaemon, CancelHitsOnlyQueuedJobs) {
  DaemonOptions dopt;
  dopt.workers = 0;
  Daemon daemon(dopt);

  core::AttackResponse first;
  bool first_delivered = false;
  const std::uint64_t id1 =
      daemon.submit(nonexistent_request(), {},
                    [&](std::uint64_t, core::AttackResponse&& resp) {
                      first = std::move(resp);
                      first_delivered = true;
                    });
  const std::uint64_t id2 = daemon.submit(
      nonexistent_request(), {}, [](std::uint64_t, core::AttackResponse&&) {});

  EXPECT_TRUE(daemon.cancel(id1));
  ASSERT_TRUE(first_delivered);
  EXPECT_EQ(first.error, core::ErrorCode::Budget);
  EXPECT_NE(first.message.find("cancel"), std::string::npos);

  EXPECT_TRUE(daemon.run_one());     // executes job 2
  EXPECT_FALSE(daemon.cancel(id2));  // already finished: no hit
  EXPECT_FALSE(daemon.run_one());    // queue drained
  const DaemonStats st = daemon.stats();
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(SvcDaemon, FullQueueRefusesWithBudget) {
  DaemonOptions dopt;
  dopt.workers = 0;
  dopt.queue_capacity = 1;
  Daemon daemon(dopt);

  daemon.submit(nonexistent_request(), {},
                [](std::uint64_t, core::AttackResponse&&) {});
  core::AttackResponse refusal;
  bool refused_synchronously = false;
  daemon.submit(nonexistent_request(), {},
                [&](std::uint64_t, core::AttackResponse&& resp) {
                  refusal = std::move(resp);
                  refused_synchronously = true;
                });
  ASSERT_TRUE(refused_synchronously);  // delivered inside submit()
  EXPECT_EQ(refusal.error, core::ErrorCode::Budget);
  EXPECT_NE(refusal.message.find("queue full"), std::string::npos);
  EXPECT_EQ(daemon.stats().rejected, 1u);
}

TEST(SvcDaemon, FailuresComeBackTypedNotThrown) {
  Daemon daemon{DaemonOptions{}};
  const core::AttackResponse resp = daemon.execute(nonexistent_request(), {});
  EXPECT_EQ(resp.status, core::AttackStatus::Failed);
  EXPECT_EQ(resp.error, core::ErrorCode::BadInput);
  EXPECT_FALSE(resp.message.empty());
}

// ------------------------------------------- corpora-on-disk test fixture

class SvcPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("aspe_svc_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  int run(std::initializer_list<std::string> args,
          std::string* out_text = nullptr) {
    std::ostringstream out, err;
    const int code =
        cli::run_command(std::vector<std::string>(args), out, err);
    if (out_text != nullptr) *out_text = out.str();
    if (code != 0) last_err_ = err.str();
    return code;
  }

  /// keygen -> gen-data -> encrypt pipeline producing the binary-record
  /// corpus (db.txt / td.txt) the SNMF tests attack.
  void make_snmf_corpus(std::size_t d = 8) {
    ASSERT_EQ(run({"keygen", "--dim=" + std::to_string(d),
                   "--key=" + path("key.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"gen-data", "--d=" + std::to_string(d), "--count=40",
                   "--rho=0.25", "--out=" + path("plain.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"gen-data", "--d=" + std::to_string(d), "--count=12",
                   "--rho=0.25", "--seed=5", "--out=" + path("q.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"encrypt", "--key=" + path("key.txt"),
                   "--plain=" + path("plain.txt"), "--out=" + path("db.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"trapdoor", "--key=" + path("key.txt"),
                   "--plain=" + path("q.txt"), "--out=" + path("td.txt")}),
              0)
        << last_err_;
  }

  /// Real-valued records + leaked prefix for the LEP tests
  /// (rdb.txt / rtd.txt / leak.txt).
  void make_lep_corpus(std::size_t d = 6) {
    ASSERT_EQ(run({"gen-data", "--d=" + std::to_string(d), "--real",
                   "--count=30", "--out=" + path("records.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"gen-data", "--d=" + std::to_string(d), "--real",
                   "--count=8", "--seed=9", "--out=" + path("queries.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"make-index", "--plain=" + path("records.txt"),
                   "--out=" + path("idx.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"make-trapdoor", "--plain=" + path("queries.txt"),
                   "--out=" + path("raw_td.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"keygen", "--dim=" + std::to_string(d + 1),
                   "--key=" + path("rkey.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"encrypt", "--key=" + path("rkey.txt"),
                   "--plain=" + path("idx.txt"), "--out=" + path("rdb.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"trapdoor", "--key=" + path("rkey.txt"),
                   "--plain=" + path("raw_td.txt"),
                   "--out=" + path("rtd.txt")}),
              0)
        << last_err_;
    // Leak the first d+4 records (comfortably more than the d+1 needed).
    const auto records = io::open_reader(path("records.txt"))->read_vecs();
    auto w = io::open_writer(path("leak.txt"), io::Format::Text);
    for (std::size_t i = 0; i < d + 4; ++i) w->write_vec(records[i]);
    w->finish();
  }

  core::AttackRequest snmf_request() const {
    core::AttackRequest req;
    core::SnmfRequest snmf;
    snmf.db = core::CorpusRef::from_path(path("db.txt"));
    snmf.trapdoors = core::CorpusRef::from_path(path("td.txt"));
    req.request = snmf;
    return req;
  }

  core::AttackRequest lep_request() const {
    core::AttackRequest req;
    core::LepRequest lep;
    lep.known_plain = core::CorpusRef::from_path(path("leak.txt"));
    lep.db = core::CorpusRef::from_path(path("rdb.txt"));
    lep.trapdoors = core::CorpusRef::from_path(path("rtd.txt"));
    req.request = lep;
    return req;
  }

  static std::string read_file(const std::string& p) {
    std::ifstream f(p, std::ios::binary);
    EXPECT_TRUE(f.good()) << p;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  fs::path dir_;
  std::string last_err_;
};

// --------------------------------------------------------- warm-cache paths

TEST_F(SvcPipeline, WarmSnmfCachesAreBitIdentical) {
  make_snmf_corpus();
  Daemon daemon{DaemonOptions{}};
  JobOptions jopts;  // seed 2017, like the CLI default

  const core::AttackResponse cold = daemon.execute(snmf_request(), jopts);
  ASSERT_TRUE(cold.ok()) << cold.message;
  const core::AttackResponse warm = daemon.execute(snmf_request(), jopts);
  ASSERT_TRUE(warm.ok()) << warm.message;

  // Second run resolved both corpora and the rank estimate from cache...
  const DaemonStats st = daemon.stats();
  EXPECT_GE(st.corpus_cache_hits, 2u);
  EXPECT_EQ(st.rank_cache_hits, 1u);
  // ...and still produced the exact same attack output.
  EXPECT_EQ(cold.snmf().indexes, warm.snmf().indexes);
  EXPECT_EQ(cold.snmf().trapdoors, warm.snmf().trapdoors);
  EXPECT_EQ(cold.snmf().best_fit_error, warm.snmf().best_fit_error);
  EXPECT_EQ(cold.telemetry.counter("snmf.estimated_rank"),
            warm.telemetry.counter("snmf.estimated_rank"));
}

TEST_F(SvcPipeline, WarmLepSessionIsBitIdentical) {
  make_lep_corpus();
  Daemon daemon{DaemonOptions{}};

  const core::AttackResponse cold = daemon.execute(lep_request(), {});
  ASSERT_TRUE(cold.ok()) << cold.message;
  const core::AttackResponse warm = daemon.execute(lep_request(), {});
  ASSERT_TRUE(warm.ok()) << warm.message;

  EXPECT_EQ(daemon.stats().lep_session_hits, 1u);
  // LepSession::result() is documented bitwise-identical to the batch
  // attack; the doubles must match exactly, not approximately.
  EXPECT_EQ(cold.lep().records, warm.lep().records);
  EXPECT_EQ(cold.lep().queries, warm.lep().queries);
  EXPECT_EQ(cold.lep().trapdoors, warm.lep().trapdoors);
}

TEST_F(SvcPipeline, EditedCorpusInvalidatesCache) {
  make_snmf_corpus();
  Daemon daemon{DaemonOptions{}};
  const core::AttackResponse first = daemon.execute(snmf_request(), {});
  ASSERT_TRUE(first.ok()) << first.message;

  // Rewrite db.txt with different content (drop the last record). The
  // fingerprint (size+mtime) changes, so nothing may be served stale.
  {
    const auto db = io::open_reader(path("db.txt"))->read_cipher_database();
    std::vector<scheme::CipherPair> smaller(db.begin(), db.end() - 1);
    auto w = io::open_writer(path("db.txt"), io::Format::Text);
    w->write_cipher_database(smaller);
    w->finish();
  }
  const core::AttackResponse second = daemon.execute(snmf_request(), {});
  ASSERT_TRUE(second.ok()) << second.message;
  EXPECT_EQ(second.snmf().indexes.size(), first.snmf().indexes.size() - 1);
}

// ------------------------------------------------- socket server lifecycle

class SvcServerTest : public SvcPipeline {
 protected:
  std::string socket_path() const { return path("svc.sock"); }

  void start_server(std::size_t workers = 1) {
    daemon_.emplace(DaemonOptions{workers});
    ServerOptions sopt;
    sopt.socket_path = socket_path();
    server_.emplace(*daemon_, sopt);
  }

  void TearDown() override {
    server_.reset();
    daemon_.reset();
    SvcPipeline::TearDown();
  }

  std::optional<Daemon> daemon_;
  std::optional<Server> server_;
};

TEST_F(SvcServerTest, PingSubmitAndCancelOverSocket) {
  make_snmf_corpus();
  start_server();

  Client client(socket_path());
  EXPECT_TRUE(client.ping());

  const core::AttackResponse resp = client.run(snmf_request());
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.snmf().indexes.size(), 40u);

  // Cancelling a finished job misses (running/finished jobs are never
  // killed); the protocol still acknowledges.
  const std::uint64_t id = client.submit(snmf_request());
  const core::AttackResponse second = client.wait(id);
  EXPECT_TRUE(second.ok());
  EXPECT_FALSE(client.cancel(id));
}

TEST_F(SvcServerTest, MalformedMagicGetsProtocolError) {
  start_server();
  Client client(socket_path());
  const char garbage[kFrameHeaderBytes] = "not a svc frame";
  ASSERT_EQ(::send(client.fd(), garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));
  // The server answers ProtocolError and closes this connection only.
  EXPECT_FALSE(client.ping());
  Client fresh(socket_path());
  EXPECT_TRUE(fresh.ping());
}

TEST_F(SvcServerTest, OversizedLengthPrefixRejected) {
  start_server();
  Client client(socket_path());
  // Valid magic and type, absurd payload length: must be refused before
  // any allocation, exactly like the io::v2 envelope guard.
  std::uint8_t header[kFrameHeaderBytes];
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t type = static_cast<std::uint32_t>(FrameType::Submit);
  const std::uint64_t len = std::uint64_t{1} << 62;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &type, 4);
  std::memcpy(header + 8, &len, 8);
  ASSERT_EQ(::send(client.fd(), header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
  EXPECT_FALSE(client.ping());
  Client fresh(socket_path());
  EXPECT_TRUE(fresh.ping());
}

TEST_F(SvcServerTest, UnknownFrameTypeRejected) {
  start_server();
  Client client(socket_path());
  std::uint8_t header[kFrameHeaderBytes] = {};
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t type = 99;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &type, 4);
  ASSERT_EQ(::send(client.fd(), header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
  EXPECT_FALSE(client.ping());
  Client fresh(socket_path());
  EXPECT_TRUE(fresh.ping());
}

TEST_F(SvcServerTest, TruncatedFrameBodyClosesConnection) {
  start_server();
  Client client(socket_path());
  // Header promises 100 payload bytes; send 3 and disconnect. The server
  // must treat it as a truncated frame, not wait forever or crash.
  std::uint8_t header[kFrameHeaderBytes];
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t type = static_cast<std::uint32_t>(FrameType::Submit);
  const std::uint64_t len = 100;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &type, 4);
  std::memcpy(header + 8, &len, 8);
  ASSERT_EQ(::send(client.fd(), header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
  const std::uint8_t partial[3] = {1, 2, 3};
  ASSERT_EQ(::send(client.fd(), partial, sizeof(partial), MSG_NOSIGNAL), 3);
  // Drop the connection mid-frame; the server thread must recover.
  { Client closer(socket_path()); }  // unrelated clean connect/disconnect
  ::shutdown(client.fd(), SHUT_RDWR);
  Client fresh(socket_path());
  EXPECT_TRUE(fresh.ping());
}

TEST_F(SvcServerTest, ClientDisconnectMidJobDoesNotKillDaemon) {
  make_snmf_corpus();
  start_server();
  {
    Client client(socket_path());
    (void)client.submit(snmf_request());
    // Destructor closes the socket while the job may still be running;
    // the daemon's delivery to a vanished client must be harmless.
  }
  // The job completes regardless of the departed client.
  for (int i = 0; i < 500 && daemon_->stats().completed == 0; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(daemon_->stats().completed, 1u);
  Client fresh(socket_path());
  EXPECT_TRUE(fresh.ping());
  const core::AttackResponse resp = fresh.run(snmf_request());
  EXPECT_TRUE(resp.ok()) << resp.message;
}

TEST_F(SvcServerTest, InlinePayloadJobNeedsNoSharedFilesystem) {
  make_snmf_corpus();
  start_server();
  // Load corpora client-side and ship them inside the Submit frame.
  core::AttackRequest req = snmf_request();
  auto& snmf = std::get<core::SnmfRequest>(req.request);
  snmf.db = core::CorpusRef::inline_ciphers(
      io::open_reader(path("db.txt"))->read_cipher_database());
  snmf.trapdoors = core::CorpusRef::inline_ciphers(
      io::open_reader(path("td.txt"))->read_cipher_database());

  Client client(socket_path());
  const core::AttackResponse inline_resp = client.run(req);
  ASSERT_TRUE(inline_resp.ok()) << inline_resp.message;
  const core::AttackResponse path_resp = client.run(snmf_request());
  ASSERT_TRUE(path_resp.ok()) << path_resp.message;
  EXPECT_EQ(inline_resp.snmf().indexes, path_resp.snmf().indexes);
  EXPECT_EQ(inline_resp.snmf().trapdoors, path_resp.snmf().trapdoors);
  EXPECT_EQ(inline_resp.snmf().best_fit_error,
            path_resp.snmf().best_fit_error);
}

// ------------------------------------------- daemon-vs-CLI bit-identity

class SvcEndToEnd : public SvcPipeline {
 protected:
  /// Run `aspe_cli serve` on a background thread and wait until the socket
  /// accepts connections.
  void start_cli_server() {
    serve_thread_ = std::thread([this] {
      std::ostringstream out, err;
      serve_exit_ = cli::run_command(
          {"serve", "--socket=" + path("svc.sock"), "--workers=2"}, out, err);
    });
    for (int i = 0; i < 500; ++i) {
      try {
        Client probe(path("svc.sock"));
        if (probe.ping()) return;
      } catch (const io::IoError&) {
      }
      std::this_thread::sleep_for(10ms);
    }
    FAIL() << "serve did not come up";
  }

  void TearDown() override {
    if (serve_thread_.joinable()) {
      try {
        Client client(path("svc.sock"));
        client.shutdown_server();
      } catch (const std::exception&) {
      }
      serve_thread_.join();
    }
    SvcPipeline::TearDown();
  }

  std::thread serve_thread_;
  int serve_exit_ = -1;
};

TEST_F(SvcEndToEnd, DaemonMatchesCliBitForBitAtOneAndEightThreads) {
  make_snmf_corpus();
  make_lep_corpus();
  start_cli_server();

  for (const std::string threads : {"1", "8"}) {
    const std::string tag = "t" + threads;
    // SNMF through the one-shot CLI and through the daemon.
    ASSERT_EQ(run({"attack-snmf", "--db=" + path("db.txt"),
                   "--trapdoors=" + path("td.txt"), "--threads=" + threads,
                   "--out=" + path("snmf_cli_" + tag + ".txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"submit", "--socket=" + path("svc.sock"), "--attack=snmf",
                   "--db=" + path("db.txt"), "--trapdoors=" + path("td.txt"),
                   "--threads=" + threads,
                   "--out=" + path("snmf_svc_" + tag + ".txt")}),
              0)
        << last_err_;
    EXPECT_EQ(read_file(path("snmf_cli_" + tag + ".txt")),
              read_file(path("snmf_svc_" + tag + ".txt")))
        << "snmf daemon/CLI outputs diverge at " << threads << " threads";

    // LEP likewise (the second daemon run also exercises the warm
    // LepSession against the CLI's cold path).
    ASSERT_EQ(run({"attack-lep", "--known-plain=" + path("leak.txt"),
                   "--db=" + path("rdb.txt"),
                   "--trapdoors=" + path("rtd.txt"), "--threads=" + threads,
                   "--out-records=" + path("lep_cli_r_" + tag + ".txt"),
                   "--out-queries=" + path("lep_cli_q_" + tag + ".txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"submit", "--socket=" + path("svc.sock"), "--attack=lep",
                   "--known-plain=" + path("leak.txt"),
                   "--db=" + path("rdb.txt"),
                   "--trapdoors=" + path("rtd.txt"), "--threads=" + threads,
                   "--out-records=" + path("lep_svc_r_" + tag + ".txt"),
                   "--out-queries=" + path("lep_svc_q_" + tag + ".txt")}),
              0)
        << last_err_;
    EXPECT_EQ(read_file(path("lep_cli_r_" + tag + ".txt")),
              read_file(path("lep_svc_r_" + tag + ".txt")));
    EXPECT_EQ(read_file(path("lep_cli_q_" + tag + ".txt")),
              read_file(path("lep_svc_q_" + tag + ".txt")));
  }

  // All four snmf outputs (cli/svc x 1/8 threads) must agree: thread count
  // never changes results.
  EXPECT_EQ(read_file(path("snmf_cli_t1.txt")),
            read_file(path("snmf_cli_t8.txt")));
}

// ------------------------------------ FIFO scheduling over the warm store

class SvcScheduler : public SvcPipeline {
 protected:
  /// Copy the SNMF corpus under new names: identical content, different
  /// paths, so the copy is a distinct corpus identity (fingerprint, store
  /// keys).
  void copy_snmf_corpus(const std::string& db2, const std::string& td2) {
    fs::copy_file(path("db.txt"), path(db2));
    fs::copy_file(path("td.txt"), path(td2));
  }

  core::AttackRequest snmf_request_at(const std::string& db,
                                      const std::string& td) const {
    core::AttackRequest req;
    core::SnmfRequest snmf;
    snmf.db = core::CorpusRef::from_path(path(db));
    snmf.trapdoors = core::CorpusRef::from_path(path(td));
    req.request = snmf;
    return req;
  }

  /// MRSE-style corpus for the MIP attack (the known-good recipe from the
  /// CLI pipeline tests: binary records, mrse indexes/trapdoor, key of
  /// dimension d + 8 + 1).
  void make_mip_corpus(std::size_t d = 24) {
    ASSERT_EQ(run({"gen-data", "--d=" + std::to_string(d), "--rho=0.25",
                   "--count=" + std::to_string(d), "--seed=31",
                   "--out=" + path("mrecords.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"gen-data", "--d=" + std::to_string(d), "--rho=0.2",
                   "--count=1", "--seed=32", "--out=" + path("mquery.txt")}),
              0)
        << last_err_;
    ASSERT_EQ(run({"mrse-index", "--plain=" + path("mrecords.txt"),
                   "--out=" + path("mindexes.txt"), "--seed=33"}),
              0)
        << last_err_;
    ASSERT_EQ(run({"mrse-trapdoor", "--plain=" + path("mquery.txt"),
                   "--out=" + path("mtd_plain.txt"), "--seed=34"}),
              0)
        << last_err_;
    ASSERT_EQ(run({"keygen", "--dim=" + std::to_string(d + 8 + 1),
                   "--key=" + path("mkey.txt"), "--seed=35"}),
              0)
        << last_err_;
    ASSERT_EQ(run({"encrypt", "--key=" + path("mkey.txt"),
                   "--plain=" + path("mindexes.txt"),
                   "--out=" + path("mdb.txt"), "--seed=36"}),
              0)
        << last_err_;
    ASSERT_EQ(run({"trapdoor", "--key=" + path("mkey.txt"),
                   "--plain=" + path("mtd_plain.txt"),
                   "--out=" + path("mtd.txt"), "--seed=37"}),
              0)
        << last_err_;
  }

  core::AttackRequest mip_request(double l = 3.0) const {
    core::AttackRequest req;
    core::MipRequest mip;
    mip.known_plain = core::CorpusRef::from_path(path("mrecords.txt"));
    mip.db = core::CorpusRef::from_path(path("mdb.txt"));
    mip.trapdoors = core::CorpusRef::from_path(path("mtd.txt"));
    mip.mu = 1.0;
    mip.sigma = 0.5;
    mip.options.l = l;
    req.request = mip;
    return req;
  }

  static void expect_same_snmf(const core::AttackResponse& a,
                               const core::AttackResponse& b) {
    ASSERT_TRUE(a.ok()) << a.message;
    ASSERT_TRUE(b.ok()) << b.message;
    EXPECT_EQ(a.snmf().indexes, b.snmf().indexes);
    EXPECT_EQ(a.snmf().trapdoors, b.snmf().trapdoors);
    EXPECT_EQ(a.snmf().best_fit_error, b.snmf().best_fit_error);
    EXPECT_EQ(a.telemetry.counter("snmf.estimated_rank"),
              b.telemetry.counter("snmf.estimated_rank"));
  }
};

TEST_F(SvcScheduler, BatchSubmitMatchesSoloAtEightWorkers) {
  make_snmf_corpus();
  Daemon solo{DaemonOptions{}};
  const core::AttackResponse ref = solo.execute(snmf_request(), {});
  ASSERT_TRUE(ref.ok()) << ref.message;

  DaemonOptions dopt;
  dopt.workers = 8;
  Daemon daemon(dopt);

  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, core::AttackResponse> got;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(daemon.submit(
        snmf_request(), {},
        [&](std::uint64_t id, core::AttackResponse&& resp) {
          std::lock_guard<std::mutex> lk(mu);
          got.emplace(id, std::move(resp));
          cv.notify_all();
        }));
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, 120s, [&] { return got.size() == 8u; }));
  }
  // However the workers raced for the jobs and the shared warm state,
  // every job's output is bit-identical to the solo run.
  for (const std::uint64_t id : ids) expect_same_snmf(got.at(id), ref);
}

TEST_F(SvcScheduler, MipBasisCacheIsBitIdenticalAndShapeKeyed) {
  make_mip_corpus();
  Daemon daemon{DaemonOptions{}};

  const core::AttackResponse cold = daemon.execute(mip_request(), {});
  ASSERT_TRUE(cold.ok()) << cold.message;
  const core::AttackResponse warm = daemon.execute(mip_request(), {});
  ASSERT_TRUE(warm.ok()) << warm.message;
  // The repeat warm-started from the cached root basis and produced the
  // exact same reconstruction.
  EXPECT_EQ(daemon.stats().basis_cache_hits, 1u);
  EXPECT_EQ(cold.mip().query, warm.mip().query);
  EXPECT_EQ(cold.mip().rhat, warm.mip().rhat);
  EXPECT_EQ(cold.mip().that, warm.mip().that);

  // Changing the model shape (here the relaxation width l, which changes
  // the LP's bounds) must miss the cache, not warm-start from a stale
  // basis: the hit counter stays put and the result matches a fresh
  // daemon's cold answer for the new shape.
  const core::AttackResponse reshaped = daemon.execute(mip_request(4.0), {});
  ASSERT_TRUE(reshaped.ok()) << reshaped.message;
  EXPECT_EQ(daemon.stats().basis_cache_hits, 1u);
  Daemon fresh{DaemonOptions{}};
  const core::AttackResponse fresh_reshaped =
      fresh.execute(mip_request(4.0), {});
  ASSERT_TRUE(fresh_reshaped.ok()) << fresh_reshaped.message;
  EXPECT_EQ(reshaped.mip().query, fresh_reshaped.mip().query);
  EXPECT_EQ(reshaped.mip().rhat, fresh_reshaped.mip().rhat);
  EXPECT_EQ(reshaped.mip().that, fresh_reshaped.mip().that);

  // And the new shape's basis is itself cached.
  const core::AttackResponse reshaped_warm =
      daemon.execute(mip_request(4.0), {});
  ASSERT_TRUE(reshaped_warm.ok()) << reshaped_warm.message;
  EXPECT_EQ(daemon.stats().basis_cache_hits, 2u);
  EXPECT_EQ(reshaped.mip().query, reshaped_warm.mip().query);
}

TEST_F(SvcScheduler, ScoreCacheEvictsUnderTightMemoryBudget) {
  make_snmf_corpus();
  copy_snmf_corpus("db2.txt", "td2.txt");

  DaemonOptions dopt;
  dopt.memory_budget_bytes = 1;  // nothing fits: every new matrix evicts
  Daemon daemon(dopt);
  const core::AttackResponse first = daemon.execute(snmf_request(), {});
  ASSERT_TRUE(first.ok()) << first.message;
  const core::AttackResponse second =
      daemon.execute(snmf_request_at("db2.txt", "td2.txt"), {});
  ASSERT_TRUE(second.ok()) << second.message;

  const DaemonStats st = daemon.stats();
  EXPECT_EQ(st.score_cache_misses, 2u);
  EXPECT_GE(st.score_cache_evictions, 1u);
  // Eviction under pressure never changes answers: the budget-starved runs
  // match an unbudgeted daemon's bit for bit.
  Daemon roomy{DaemonOptions{}};
  expect_same_snmf(first, roomy.execute(snmf_request(), {}));
}

TEST_F(SvcScheduler, RankEstimateCacheKeysOnTolerance) {
  make_snmf_corpus();
  Daemon daemon{DaemonOptions{}};

  const core::AttackResponse base = daemon.execute(snmf_request(), {});
  ASSERT_TRUE(base.ok()) << base.message;
  EXPECT_EQ(daemon.stats().rank_cache_hits, 0u);

  // Same corpus and seed, different estimation tolerance: the cached rank
  // from the default tolerance must NOT be served (the pre-fix cache keyed
  // only on corpus + seed and silently reused it).
  core::AttackRequest coarse = snmf_request();
  std::get<core::SnmfRequest>(coarse.request).options.rank_tol = 0.5;
  const core::AttackResponse coarse_cold = daemon.execute(coarse, {});
  ASSERT_TRUE(coarse_cold.ok()) << coarse_cold.message;
  EXPECT_EQ(daemon.stats().rank_cache_hits, 0u);

  // Each tolerance keeps its own entry: repeats of either hit.
  const core::AttackResponse coarse_warm = daemon.execute(coarse, {});
  ASSERT_TRUE(coarse_warm.ok()) << coarse_warm.message;
  EXPECT_EQ(daemon.stats().rank_cache_hits, 1u);
  expect_same_snmf(coarse_cold, coarse_warm);
  const core::AttackResponse base_warm = daemon.execute(snmf_request(), {});
  ASSERT_TRUE(base_warm.ok()) << base_warm.message;
  EXPECT_EQ(daemon.stats().rank_cache_hits, 2u);
  expect_same_snmf(base, base_warm);
}

// ------------------------------------------------ warm-state keys and budget

class SvcWarmState : public SvcScheduler {
 protected:
  /// A copy of corpus file `name` under a per-copy name: same bytes, its
  /// own fingerprint, so every copy is its own warm state.
  core::CorpusRef copy_of(const std::string& name, int copy) const {
    const std::string to = "c" + std::to_string(copy) + "_" + name;
    fs::copy_file(path(name), path(to));
    return core::CorpusRef::from_path(path(to));
  }

  static void expect_same_answer(const core::AttackResponse& a,
                                 const core::AttackResponse& b) {
    ASSERT_TRUE(a.ok()) << a.message;
    ASSERT_TRUE(b.ok()) << b.message;
    ASSERT_EQ(a.result.index(), b.result.index());
    if (std::holds_alternative<core::LepResult>(a.result)) {
      EXPECT_EQ(a.lep().records, b.lep().records);
      EXPECT_EQ(a.lep().queries, b.lep().queries);
      EXPECT_EQ(a.lep().trapdoors, b.lep().trapdoors);
    } else if (std::holds_alternative<core::MipAttackResult>(a.result)) {
      EXPECT_EQ(a.mip().query, b.mip().query);
      EXPECT_EQ(a.mip().rhat, b.mip().rhat);
      EXPECT_EQ(a.mip().that, b.mip().that);
    } else {
      expect_same_snmf(a, b);
    }
  }
};

TEST_F(SvcWarmState, CoaSessionKeyCoversEveryOption) {
  make_snmf_corpus();
  core::AttackRequest base = snmf_request();
  std::get<core::SnmfRequest>(base.request).reuse_session = true;
  core::AttackRequest sparse = base;
  std::get<core::SnmfRequest>(sparse.request).options.nmf.lambda = 5.0;

  Daemon daemon{DaemonOptions{}};
  ASSERT_TRUE(daemon.execute(base, {}).ok());
  // A different NMF penalty is a different session: the job gets a fresh
  // one, so it answers exactly like a fresh daemon.
  const core::AttackResponse got_sparse = daemon.execute(sparse, {});
  EXPECT_EQ(daemon.stats().snmf_resumes, 0u);
  expect_same_snmf(got_sparse, Daemon{DaemonOptions{}}.execute(sparse, {}));

  // The identical request still resumes its own session.
  ASSERT_TRUE(daemon.execute(base, {}).ok());
  EXPECT_EQ(daemon.stats().snmf_resumes, 1u);
}

TEST_F(SvcWarmState, LepSessionKeyKeepsEveryToleranceDigit) {
  make_lep_corpus();
  core::AttackRequest near = lep_request();
  // Equal to the default 1e-9 in the first six significant digits.
  std::get<core::LepRequest>(near.request).options.independence_tol =
      1.0000001e-9;

  Daemon daemon{DaemonOptions{}};
  ASSERT_TRUE(daemon.execute(lep_request(), {}).ok());
  const core::AttackResponse got = daemon.execute(near, {});
  EXPECT_EQ(daemon.stats().lep_session_hits, 0u);
  expect_same_answer(got, Daemon{DaemonOptions{}}.execute(near, {}));
  ASSERT_TRUE(daemon.execute(near, {}).ok());
  EXPECT_EQ(daemon.stats().lep_session_hits, 1u);
}

TEST_F(SvcWarmState, SoakStaysWithinBudgetAcrossKindsAtEightWorkers) {
  make_snmf_corpus();
  make_lep_corpus();
  make_mip_corpus();
  constexpr int kCopies = 4;
  std::vector<core::AttackRequest> requests;
  for (int c = 0; c < kCopies; ++c) {
    core::AttackRequest snmf = snmf_request();
    auto& s = std::get<core::SnmfRequest>(snmf.request);
    s.db = copy_of("db.txt", c);
    s.trapdoors = copy_of("td.txt", c);
    core::AttackRequest lep = lep_request();
    auto& l = std::get<core::LepRequest>(lep.request);
    l.known_plain = copy_of("leak.txt", c);
    l.db = copy_of("rdb.txt", c);
    l.trapdoors = copy_of("rtd.txt", c);
    core::AttackRequest mip = mip_request();
    auto& m = std::get<core::MipRequest>(mip.request);
    m.known_plain = copy_of("mrecords.txt", c);
    m.db = copy_of("mdb.txt", c);
    m.trapdoors = copy_of("mtd.txt", c);
    requests.insert(requests.end(), {snmf, lep, mip});
  }

  // References from an unbudgeted daemon, which ends holding every copy's
  // warm state; the budget fits about one copy's.
  Daemon roomy{DaemonOptions{}};
  std::vector<core::AttackResponse> refs;
  for (const auto& req : requests) refs.push_back(roomy.execute(req, {}));
  const std::size_t budget = roomy.stats().cache_bytes / kCopies;
  ASSERT_GT(budget, 0u);

  DaemonOptions dopt;
  dopt.workers = 8;
  dopt.memory_budget_bytes = budget;
  Daemon daemon(dopt);
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, core::AttackResponse> got;
  std::map<std::uint64_t, std::size_t> request_of;
  // Submit `wave` jobs, wait until all are delivered — no job is running
  // then, so nothing pins warm state — and check the budget holds.
  std::size_t next = 0;
  const auto run_wave = [&](std::size_t wave) {
    for (std::size_t k = 0; k < wave; ++k, ++next) {
      const std::size_t r = next % requests.size();
      const std::uint64_t id = daemon.submit(
          requests[r], {}, [&](std::uint64_t job, core::AttackResponse&& resp) {
            std::lock_guard<std::mutex> lk(mu);
            got.emplace(job, std::move(resp));
            cv.notify_all();
          });
      std::lock_guard<std::mutex> lk(mu);
      request_of[id] = r;
    }
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, 300s, [&] { return got.size() == next; }));
    EXPECT_LE(daemon.stats().cache_bytes, budget) << "after job " << next;
  };
  // One job at a time through every request, then two passes in waves of
  // eight concurrent jobs.
  for (std::size_t i = 0; i < requests.size(); ++i) run_wave(1);
  for (std::size_t i = 0; i < 2 * requests.size(); i += 8) run_wave(8);

  ASSERT_EQ(got.size(), next);
  for (const auto& [id, resp] : got) {
    expect_same_answer(resp, refs[request_of[id]]);
  }
}

TEST_F(SvcServerTest, SubmitBatchAndStatsPongOverSocket) {
  make_snmf_corpus();
  start_server(2);

  Client client(socket_path());
  std::vector<BatchJob> jobs(3);
  for (auto& job : jobs) job.request = snmf_request();
  const std::vector<std::uint64_t> ids = client.submit_batch(jobs);
  ASSERT_EQ(ids.size(), 3u);

  std::vector<core::AttackResponse> resps;
  for (const std::uint64_t id : ids) resps.push_back(client.wait(id));
  for (const auto& resp : resps) {
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(resp.snmf().indexes, resps.front().snmf().indexes);
    EXPECT_EQ(resp.snmf().best_fit_error, resps.front().snmf().best_fit_error);
  }

  const auto stats = client.ping_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->submitted, 3u);
  EXPECT_EQ(stats->completed, 3u);
  EXPECT_EQ(stats->queue_depth, 0u);
  EXPECT_GT(stats->cache_bytes, 0u);
  EXPECT_TRUE(client.ping());  // plain ping still round-trips
}

TEST_F(SvcEndToEnd, MultiInputSubmitWritesPerJobOutputs) {
  make_snmf_corpus();
  fs::copy_file(path("db.txt"), path("db2.txt"));
  start_cli_server();

  // Reference: the one-shot CLI on the same corpus.
  ASSERT_EQ(run({"attack-snmf", "--db=" + path("db.txt"),
                 "--trapdoors=" + path("td.txt"),
                 "--out=" + path("solo.txt")}),
            0)
      << last_err_;

  // Two databases through one submit invocation: one SubmitBatch frame,
  // per-job outputs suffixed .jobN, per-job status lines.
  std::string text;
  ASSERT_EQ(run({"submit", "--socket=" + path("svc.sock"), "--attack=snmf",
                 "--input=" + path("db.txt") + "," + path("db2.txt"),
                 "--trapdoors=" + path("td.txt"),
                 "--out=" + path("multi.txt")},
                &text),
            0)
        << last_err_;
  EXPECT_NE(text.find("job 0"), std::string::npos) << text;
  EXPECT_NE(text.find("job 1"), std::string::npos) << text;
  EXPECT_EQ(read_file(path("multi.txt.job0")), read_file(path("solo.txt")));
  // db2 is a byte-for-byte copy, so its job reconstructs identically.
  EXPECT_EQ(read_file(path("multi.txt.job1")), read_file(path("solo.txt")));

  // --ping now reports the daemon's stats in one line.
  ASSERT_EQ(run({"submit", "--socket=" + path("svc.sock"), "--ping"}, &text),
            0)
      << last_err_;
  EXPECT_EQ(text.rfind("pong", 0), 0u) << text;
  EXPECT_NE(text.find("submitted"), std::string::npos) << text;
}

TEST_F(SvcEndToEnd, SubmitHonorsDeadlineExitCode) {
  make_snmf_corpus();
  start_cli_server();
  // An absurdly short deadline on a queued job maps onto Budget -> exit 5.
  // With two workers idle the job usually starts instantly, so pre-fill
  // the queue with a couple of jobs to make the deadline observable; the
  // assertion tolerates either success (0) or budget (5), but never
  // anything else.
  Client filler(path("svc.sock"));
  for (int i = 0; i < 4; ++i) (void)filler.submit(snmf_request());
  const int code =
      run({"submit", "--socket=" + path("svc.sock"), "--attack=snmf",
           "--db=" + path("db.txt"), "--trapdoors=" + path("td.txt"),
           "--deadline-ms=1", "--out=" + path("snmf_deadline.txt")});
  EXPECT_TRUE(code == 0 || code == 5) << "exit " << code << ": " << last_err_;
}

}  // namespace
}  // namespace aspe::svc
