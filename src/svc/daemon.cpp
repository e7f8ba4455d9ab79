#include "svc/daemon.hpp"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "core/session.hpp"
#include "scheme/plain_index.hpp"
#include "sse/adversary_view.hpp"

namespace aspe::svc {

namespace {

using core::WarmKind;
template <class T>
using Built = core::WarmStore::Built<T>;

/// Per-job recording target: the job's own telemetry comes back through
/// the attack result, so this only forwards to the daemon-wide sink (when
/// one is configured).
class ForwardSink final : public obs::Sink {
 public:
  explicit ForwardSink(obs::Sink* downstream) : downstream_(downstream) {}

  void consume(const obs::Summary& summary) override {
    if (downstream_ != nullptr) downstream_->consume(summary);
  }

 private:
  obs::Sink* downstream_;
};

/// Corpus identity for the warm state: path plus size plus mtime. Nullopt
/// when the file cannot be stat'ed (the subsequent load reports the real
/// error with the io layer's message).
std::optional<std::string> stat_fingerprint(const std::string& path) {
  struct ::stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  std::ostringstream os;
  os << path << '|' << st.st_size << '|' << st.st_mtim.tv_sec << '.'
     << st.st_mtim.tv_nsec;
  return os.str();
}

core::ExecContext job_context(const JobOptions& opts) {
  core::ExecContext ctx;
  ctx.threads = opts.threads;
  ctx.seed = opts.seed;
  ctx.deterministic = opts.deterministic;
  return ctx;
}

// ---- warm-state keys: each covers every field its state depends on
// besides the corpora. Thread counts and the memory budget shape how an
// attack runs, never what it computes, so no key carries them.

/// A LepSession draws no randomness; only its independence tolerance
/// decides which pairs and trapdoors form the bases.
std::string lep_session_key(const std::string& corpora,
                            const core::LepOptions& o) {
  return core::warm_key(corpora, o.independence_tol);
}

/// A CoaSession reads every SNMF option (rank estimate, restarts, NMF
/// solve, binarization, warm resumes) and draws its restarts from the seed
/// in the context's stream mode.
std::string coa_session_key(const std::string& corpora,
                            const core::SnmfAttackOptions& o,
                            const core::ExecContext& ctx) {
  const nmf::SparseNmfOptions& n = o.nmf;
  return core::warm_key(
      corpora, o.rank, o.theta, o.restarts, o.rank_tol, o.balance,
      o.resume_iterations, n.eta, n.lambda, n.max_iterations, n.rel_tol,
      static_cast<int>(n.algorithm), static_cast<int>(n.init), n.warm_start,
      n.truncated_init, n.resume_from_init, ctx.seed, ctx.deterministic);
}

/// A MIP root basis comes from the model (trapdoor, noise model, attack
/// options) and the solver options. run_mip_attack also checks a model
/// digest before warm-starting, so a key collision costs a cold solve, not
/// a wrong answer.
std::string mip_basis_key(const std::string& corpora,
                          const core::MipRequest& r) {
  const core::MipAttackOptions& o = r.options;
  const opt::MipOptions& s = o.solver;
  return core::warm_key(
      corpora, r.trapdoor_id, r.mu, r.sigma, o.l,
      static_cast<int>(o.root_ordering), o.rhat_min, o.rhat_max, o.that_min,
      o.that_max, o.use_heuristic, o.max_repair_flips, s.first_feasible,
      s.use_presolve, s.warm_start, s.max_nodes, s.time_limit_seconds,
      s.int_tol, s.lp.max_iterations, s.lp.feas_tol, s.lp.opt_tol,
      s.lp.dual_iteration_limit, s.lp.refactor_interval,
      s.lp.bland_threshold);
}

/// A CoaSession kept for warm resumes. attack() mutates it, so one job at
/// a time holds `mu`.
struct CoaEntry {
  CoaEntry(const core::SnmfAttackOptions& options, const core::ExecContext& ctx)
      : session(options, ctx) {}
  std::mutex mu;
  core::CoaSession session;
  std::size_t rank = 0;
};

/// One persistent MIP warm state (the root-LP basis). `mu` is held across
/// the whole attack, so two identical MIP jobs never race on the basis.
struct MipBasisEntry {
  std::mutex mu;
  core::MipWarmState state;
};

std::size_t basis_bytes(const opt::BasisState& b) {
  return b.basis.size() * sizeof(std::size_t) +
         b.status.size() * sizeof(opt::VarStatus) +
         b.art_sign.size() * sizeof(double);
}

template <class Request>
core::AttackResponse dispatch(Request req, const core::ExecContext& ctx,
                              const core::DispatchHooks& hooks = {}) {
  core::AttackRequest request;
  request.request = std::move(req);
  return core::dispatch_attack(request, ctx, hooks);
}

template <class Result>
core::AttackResponse ok_response(Result&& res) {
  core::AttackResponse resp;
  resp.telemetry = res.telemetry;
  resp.result = std::forward<Result>(res);
  resp.status = core::AttackStatus::Ok;
  resp.error = core::ErrorCode::Ok;
  return resp;
}

}  // namespace

// ------------------------------------------------------------------ daemon

Daemon::Daemon(DaemonOptions options)
    : options_(options), store_(options.memory_budget_bytes) {
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Daemon::~Daemon() { stop(); }

core::AttackResponse Daemon::refused(core::ErrorCode code,
                                     const std::string& message) const {
  core::AttackResponse resp;
  resp.status = core::AttackStatus::Failed;
  resp.error = code;
  resp.message = message;
  return resp;
}

std::uint64_t Daemon::submit(core::AttackRequest request, JobOptions options,
                             Deliver deliver) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);

  auto job = std::make_shared<Job>();
  job->id = id;
  job->request = std::move(request);
  job->options = options;
  job->deliver = std::move(deliver);
  if (options.deadline_ms > 0) {
    job->deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options.deadline_ms);
  }

  bool stopping = false;
  bool queued = false;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stopping = stopping_;
    if (!stopping && queue_.size() < options_.queue_capacity) {
      queue_.push_back(job);
      queued = true;
    }
  }
  if (queued) {
    queue_cv_.notify_one();
    return id;
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  job->deliver(id, refused(core::ErrorCode::Budget,
                           stopping ? "daemon is stopping"
                                    : "queue full: job refused"));
  return id;
}

bool Daemon::cancel(std::uint64_t job_id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    const auto it =
        std::find_if(queue_.begin(), queue_.end(),
                     [job_id](const auto& j) { return j->id == job_id; });
    if (it == queue_.end()) return false;
    job = *it;
    queue_.erase(it);
  }
  cancelled_.fetch_add(1, std::memory_order_relaxed);
  job->deliver(job->id, refused(core::ErrorCode::Budget,
                                "job cancelled before execution"));
  return true;
}

bool Daemon::run_one() {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (queue_.empty()) return false;
    job = std::move(queue_.front());
    queue_.pop_front();
  }
  if (job->deadline != std::chrono::steady_clock::time_point{} &&
      std::chrono::steady_clock::now() > job->deadline) {
    expired_.fetch_add(1, std::memory_order_relaxed);
    job->deliver(job->id,
                 refused(core::ErrorCode::Budget,
                         "deadline of " +
                             std::to_string(job->options.deadline_ms) +
                             " ms expired before the job started"));
    return true;
  }
  core::AttackResponse resp = execute(job->request, job->options);
  completed_.fetch_add(1, std::memory_order_relaxed);
  job->deliver(job->id, std::move(resp));
  return true;
}

void Daemon::worker_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;  // queue drained by stop()
    }
    // A raced pop (another worker emptied the queue between the wait and
    // here) returns false and loops back into the wait.
    run_one();
  }
}

void Daemon::stop() {
  std::deque<std::shared_ptr<Job>> orphaned;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stopping_ = true;
    orphaned.swap(queue_);
  }
  queue_cv_.notify_all();
  for (const auto& job : orphaned) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    job->deliver(job->id, refused(core::ErrorCode::Budget,
                                  "daemon stopped before execution"));
  }
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

DaemonStats Daemon::stats() const {
  DaemonStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  const core::WarmStore::Stats warm = store_.stats();
  s.corpus_cache_hits = warm[WarmKind::Corpus].hits;
  s.rank_cache_hits = warm[WarmKind::Rank].hits;
  s.lep_session_hits = warm[WarmKind::LepSession].hits;
  s.snmf_resumes = warm[WarmKind::CoaSession].hits;
  s.basis_cache_hits = warm[WarmKind::MipBasis].hits;
  const core::WarmStore::KindStats& score = warm[WarmKind::Score];
  s.score_cache_hits = score.hits;
  s.score_cache_misses = score.misses;
  s.score_cache_evictions = score.evictions;
  s.score_cache_bytes = score.bytes;
  s.cache_bytes = warm.bytes;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    s.queue_depth = queue_.size();
  }
  return s;
}

// --------------------------------------------------------------- warm state

core::CorpusRef Daemon::resolve_corpus(const core::CorpusRef& ref,
                                       CorpusKind kind,
                                       std::string& fingerprint) {
  fingerprint.clear();
  if (ref.ciphers != nullptr || ref.vecs != nullptr || ref.path.empty()) {
    return ref;  // inline (no stable identity) or empty (dispatch validates)
  }
  const auto fp = stat_fingerprint(ref.path);
  if (!fp) return ref;  // unreadable: let the loader raise the io error
  const std::string key = core::warm_key(*fp, static_cast<int>(kind));
  core::CorpusRef out;
  if (kind == CorpusKind::Ciphers) {
    using Ciphers = const std::vector<scheme::CipherPair>;
    out.ciphers = store_.get_or_build<Ciphers>(WarmKind::Corpus, key, [&] {
      auto loaded = ref.load_ciphers("corpus");
      std::size_t doubles = 0;
      for (const auto& c : *loaded) doubles += c.a.size() + c.b.size();
      return Built<Ciphers>{loaded, doubles * sizeof(double)};
    });
  } else {
    using Vecs = const std::vector<Vec>;
    out.vecs = store_.get_or_build<Vecs>(WarmKind::Corpus, key, [&] {
      auto loaded = ref.load_vecs("corpus");
      std::size_t doubles = 0;
      for (const auto& v : *loaded) doubles += v.size();
      return Built<Vecs>{loaded, doubles * sizeof(double)};
    });
  }
  fingerprint = *fp;
  return out;
}

// --------------------------------------------------------------- execution

core::AttackResponse Daemon::execute(const core::AttackRequest& request,
                                     const JobOptions& options) {
  core::AttackResponse resp;
  try {
    resp = execute_resolved(request, options);
  } catch (const std::exception& e) {
    resp = refused(core::error_code_of(e), e.what());
  }
  // The job has let go of its warm state: settle back under the budget.
  store_.trim();
  return resp;
}

core::AttackResponse Daemon::execute_resolved(
    const core::AttackRequest& request, const JobOptions& options) {
  core::ExecContext ctx = job_context(options);
  ctx.memory_budget_bytes = options_.memory_budget_bytes;
  ForwardSink collector(options_.sink);
  if (options.want_telemetry || options_.sink != nullptr) {
    ctx.sink = &collector;
  }

  core::AttackResponse resp = std::visit(
      [&](const auto& typed) -> core::AttackResponse {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, core::LepRequest>) {
          return execute_lep(typed, ctx);
        } else if constexpr (std::is_same_v<T, core::MipRequest>) {
          return execute_mip(typed, ctx);
        } else {
          return execute_snmf(typed, ctx);
        }
      },
      request.request);

  if (!options.want_telemetry) {
    resp.telemetry.spans.clear();
    resp.telemetry.gauges.clear();
  }
  return resp;
}

core::AttackResponse Daemon::execute_lep(const core::LepRequest& typed,
                                         const core::ExecContext& ctx) {
  core::LepRequest req = typed;
  std::string kp_fp, db_fp, td_fp;
  req.known_plain = resolve_corpus(typed.known_plain, CorpusKind::Vecs, kp_fp);
  req.db = resolve_corpus(typed.db, CorpusKind::Ciphers, db_fp);
  req.trapdoors = resolve_corpus(typed.trapdoors, CorpusKind::Ciphers, td_fp);
  if (kp_fp.empty() || db_fp.empty() || td_fp.empty()) {
    return dispatch(std::move(req), ctx);
  }

  // The recording wraps session build *and* assemble; the session itself
  // runs with a null sink (its spans land in this recording).
  obs::ScopedRecording rec(ctx.sink);
  const auto session = store_.get_or_build<const core::LepSession>(
      WarmKind::LepSession,
      lep_session_key(core::warm_key(kp_fp, db_fp, td_fp), req.options), [&] {
        const auto known = req.known_plain.load_vecs("lep known-plain");
        const auto db = req.db.load_ciphers("lep db");
        const auto trapdoors = req.trapdoors.load_ciphers("lep trapdoors");
        if (known->size() > db->size()) {
          throw core::Error(core::ErrorCode::BadInput,
                            "lep: more known records than ciphertexts");
        }
        core::ExecContext session_ctx = ctx;
        session_ctx.sink = nullptr;
        auto built =
            std::make_shared<core::LepSession>(req.options, session_ctx);
        std::vector<sse::KnownIndexPair> pairs;
        pairs.reserve(known->size());
        for (std::size_t i = 0; i < known->size(); ++i) {
          pairs.push_back({scheme::make_index((*known)[i]), (*db)[i]});
        }
        built->add_known_pairs(pairs);
        sse::CoaView view;
        view.cipher_indexes = *db;
        view.cipher_trapdoors = *trapdoors;
        built->append_ciphertexts(view);
        return Built<const core::LepSession>{built, built->resident_bytes()};
      });

  // result() is bit-identical to run_lep_attack on the same view (the
  // session contract), so warm hits return exactly the cold answer.
  auto res = session->result();
  res.telemetry.absorb(rec.finish());
  return ok_response(std::move(res));
}

core::AttackResponse Daemon::execute_mip(const core::MipRequest& typed,
                                         const core::ExecContext& ctx) {
  core::MipRequest req = typed;
  std::string kp_fp, db_fp, td_fp;
  req.known_plain = resolve_corpus(typed.known_plain, CorpusKind::Vecs, kp_fp);
  req.db = resolve_corpus(typed.db, CorpusKind::Ciphers, db_fp);
  req.trapdoors = resolve_corpus(typed.trapdoors, CorpusKind::Ciphers, td_fp);
  if (kp_fp.empty() || db_fp.empty() || td_fp.empty()) {
    return dispatch(std::move(req), ctx);
  }

  // Repeated jobs over the same corpora and parameters warm-start the root
  // LP from the stored basis; the entry is built empty and filled by the
  // first attack, so its bytes are recorded after each run.
  const std::string key =
      mip_basis_key(core::warm_key(kp_fp, db_fp, td_fp), req);
  const auto entry =
      store_.get_or_build<MipBasisEntry>(WarmKind::MipBasis, key, [] {
        return Built<MipBasisEntry>{std::make_shared<MipBasisEntry>(), 0};
      });
  std::lock_guard<std::mutex> lk(entry->mu);
  core::DispatchHooks hooks;
  hooks.mip_warm = &entry->state;
  core::AttackResponse resp = dispatch(std::move(req), ctx, hooks);
  store_.resize(WarmKind::MipBasis, key, basis_bytes(entry->state.root_basis));
  return resp;
}

core::AttackResponse Daemon::execute_snmf(const core::SnmfRequest& typed,
                                          const core::ExecContext& ctx) {
  core::SnmfRequest req = typed;
  std::string db_fp, td_fp;
  req.db = resolve_corpus(typed.db, CorpusKind::Ciphers, db_fp);
  req.trapdoors = resolve_corpus(typed.trapdoors, CorpusKind::Ciphers, td_fp);
  if (db_fp.empty() || td_fp.empty()) return dispatch(std::move(req), ctx);
  const std::string corpora = core::warm_key(db_fp, td_fp);

  if (!req.reuse_session) {
    // Dispatch reads the score matrix and the rank estimate through the
    // store; both builds are deterministic, so a hit never changes output.
    core::DispatchHooks hooks;
    hooks.store = &store_;
    hooks.score_key = corpora;
    return dispatch(std::move(req), ctx, hooks);
  }

  const std::string key = coa_session_key(corpora, req.options, ctx);
  obs::ScopedRecording rec(ctx.sink);
  const auto entry =
      store_.get_or_build<CoaEntry>(WarmKind::CoaSession, key, [&] {
        const auto db = req.db.load_ciphers("snmf db");
        const auto trapdoors = req.trapdoors.load_ciphers("snmf trapdoors");
        core::ExecContext session_ctx = ctx;
        session_ctx.sink = nullptr;
        auto built = std::make_shared<CoaEntry>(req.options, session_ctx);
        sse::CoaView view;
        view.cipher_indexes = *db;
        view.cipher_trapdoors = *trapdoors;
        built->session.append_ciphertexts(view);
        std::size_t rank = req.options.rank;
        if (rank == 0) {
          rank = built->session.estimate_rank(req.options.rank_tol);
          if (rank == 0) {
            throw core::Error(core::ErrorCode::NotReady,
                              "snmf: rank estimation found a zero matrix");
          }
        }
        built->session.set_rank(rank);
        built->rank = rank;
        return Built<CoaEntry>{built, built->session.resident_bytes()};
      });

  std::lock_guard<std::mutex> lk(entry->mu);
  // First attack of a fresh session == run_snmf_attack bit for bit; later
  // calls warm-resume (same fixed point, not bitwise — which is why this
  // path requires the reuse_session opt-in).
  auto res = entry->session.attack();
  store_.resize(WarmKind::CoaSession, key, entry->session.resident_bytes());
  if (req.options.rank == 0) {
    res.telemetry.counters["snmf.estimated_rank"] =
        static_cast<double>(entry->rank);
  }
  res.telemetry.absorb(rec.finish());
  return ok_response(std::move(res));
}

// ------------------------------------------------------------------ server

struct Server::Connection {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<bool> open{true};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// Serialized frame write; false (and closed-for-writing) once the peer
  /// is gone. A daemon worker delivering to a vanished client lands here
  /// harmlessly — the job itself already ran to completion.
  bool send(FrameType type, const std::vector<std::uint8_t>& payload) {
    std::lock_guard<std::mutex> lk(write_mu);
    if (!open.load(std::memory_order_relaxed)) return false;
    if (!send_frame(fd, type, payload)) {
      open.store(false, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
};

Server::Server(Daemon& daemon, ServerOptions options)
    : daemon_(daemon), options_(std::move(options)) {
  sockaddr_un addr{};
  if (options_.socket_path.empty()) {
    throw InvalidArgument("svc: server requires a socket path");
  }
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw InvalidArgument("svc: socket path too long: " + options_.socket_path);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw io::IoError(std::string("svc: socket(): ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // replace a stale socket file
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw io::IoError("svc: bind(" + options_.socket_path +
                      "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw io::IoError(std::string("svc: listen(): ") + std::strerror(err));
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down by stop()
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;  // conn destructor closes the fd
    connections_.push_back(conn);
    handlers_.emplace_back([this, conn] { handle_connection(conn); });
  }
}

void Server::submit_job(const std::shared_ptr<Connection>& conn,
                        core::AttackRequest request,
                        const JobOptions& options) {
  // Accepted must precede Result on the wire even when the daemon delivers
  // synchronously (queue-full refusal) or a worker finishes before submit()
  // returns — both deliver paths and this thread race through this
  // once-guard with the same id.
  auto accept_once = std::make_shared<std::once_flag>();
  auto send_accepted = [conn, accept_once](std::uint64_t id) {
    std::call_once(*accept_once, [&] {
      WireWriter w;
      w.u64(id);
      conn->send(FrameType::Accepted, w.bytes());
    });
  };
  const auto id = daemon_.submit(
      std::move(request), options,
      [conn, send_accepted](std::uint64_t job_id, core::AttackResponse&& resp) {
        send_accepted(job_id);
        conn->send(FrameType::Result, build_result_payload(job_id, resp));
      });
  send_accepted(id);
}

void Server::handle_connection(const std::shared_ptr<Connection>& conn) {
  try {
    for (;;) {
      auto frame = recv_frame(conn->fd, options_.max_frame_bytes);
      if (!frame) return;  // clean disconnect at a frame boundary
      switch (frame->type) {
        case FrameType::Submit: {
          WireReader r(frame->payload);
          JobOptions jopts = decode_job_options(r);
          core::AttackRequest req = decode_request(r);
          r.expect_end("svc submit frame");
          submit_job(conn, std::move(req), jopts);
          break;
        }
        case FrameType::SubmitBatch: {
          WireReader r(frame->payload);
          // Minimum bytes per job: the fixed-size JobOptions block (26)
          // plus a one-byte request tag.
          const std::size_t n = r.count(27, "svc submit-batch job count");
          std::vector<std::pair<JobOptions, core::AttackRequest>> jobs;
          jobs.reserve(n);
          for (std::size_t i = 0; i < n; ++i) {
            JobOptions jopts = decode_job_options(r);
            jobs.emplace_back(jopts, decode_request(r));
          }
          r.expect_end("svc submit-batch frame");
          // Each job is an ordinary Submit; their Accepted frames go out
          // in batch order because each submit_job sends its own before
          // the next job is queued.
          for (auto& [jopts, req] : jobs) {
            submit_job(conn, std::move(req), jopts);
          }
          break;
        }
        case FrameType::Cancel: {
          WireReader r(frame->payload);
          const std::uint64_t id = r.u64();
          r.expect_end("svc cancel frame");
          const bool hit = daemon_.cancel(id);
          WireWriter w;
          w.u64(id);
          w.u8(hit ? 1 : 0);
          conn->send(FrameType::CancelAck, w.bytes());
          break;
        }
        case FrameType::Ping: {
          // The Pong carries the daemon's stats block; a client that does
          // not care simply ignores the payload.
          WireWriter w;
          encode_daemon_stats(w, daemon_.stats());
          conn->send(FrameType::Pong, w.bytes());
          break;
        }
        case FrameType::Shutdown: {
          conn->send(FrameType::ShutdownAck, {});
          {
            std::lock_guard<std::mutex> lk(mu_);
            shutdown_requested_ = true;
          }
          shutdown_cv_.notify_all();
          return;
        }
        default:
          throw io::IoError("svc: unexpected frame type " +
                            std::to_string(static_cast<std::uint32_t>(
                                frame->type)));
      }
    }
  } catch (const std::exception& e) {
    // Malformed input: decode state past the first bad byte is unknowable,
    // so answer (best effort) and drop only this connection.
    WireWriter w;
    w.str(e.what());
    conn->send(FrameType::ProtocolError, w.bytes());
    conn->open.store(false, std::memory_order_relaxed);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void Server::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  shutdown_cv_.wait(lk, [this] { return shutdown_requested_ || stopped_; });
}

void Server::stop() {
  std::vector<std::thread> handlers;
  bool was_stopped = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    was_stopped = stopped_;
    if (!stopped_) {
      stopped_ = true;
      shutdown_requested_ = true;
      // shutdown() unblocks accept()/recv() on Linux; the fds are closed
      // after the threads holding them have been joined.
      if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
      for (const auto& weak : connections_) {
        if (auto conn = weak.lock()) {
          conn->open.store(false, std::memory_order_relaxed);
          ::shutdown(conn->fd, SHUT_RDWR);
        }
      }
    }
    handlers.swap(handlers_);
  }
  shutdown_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& t : handlers) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!was_stopped) ::unlink(options_.socket_path.c_str());
}

}  // namespace aspe::svc
