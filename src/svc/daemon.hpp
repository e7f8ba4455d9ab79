// aspe::svc — the long-running attack service.
//
// A Daemon owns the warmed state that one-shot CLI invocations rebuild on
// every run: the process-wide par::ThreadPool, a parsed-corpus cache keyed
// by (path, size, mtime), a rank-estimate cache for SNMF jobs, persistent
// core::LepSession objects (whose LU factorizations make repeated LEP jobs
// a back-substitution-and-assemble instead of a fresh solve — bit-identical
// to the batch attack, per PR 7's session contract) and opt-in
// core::CoaSession objects for SNMF warm resumes. Jobs arrive as
// core::AttackRequest values (decoded from Submit frames by the Server, or
// handed in directly by in-process callers), run on a bounded queue with
// per-job deadlines and cancellation, and leave as core::AttackResponse.
//
// Architecture follows the filter-graph runtime named in the ROADMAP:
// attacks are the persistent filters, corpora the typed channels feeding
// them (a CorpusRef names a channel; the corpus cache is its buffer), and
// the framed socket protocol is the command channel controlling the graph
// at runtime.
//
// Threading: Daemon::submit/cancel/execute are safe to call from any
// thread. Worker threads execute jobs concurrently; the attacks' parallel
// sections share the process pool (a second concurrent batch degrades to
// serial inside the pool, so results stay bit-identical at any worker
// count). Sessions are serialized per corpus key.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/attack_api.hpp"
#include "core/session.hpp"
#include "obs/obs.hpp"
#include "svc/protocol.hpp"

namespace aspe::svc {

struct DaemonOptions {
  /// Job-execution threads. 0 builds a stepping daemon that runs jobs only
  /// through run_one() / run_scheduled() — the deterministic mode the queue
  /// and scheduler tests drive.
  std::size_t workers = 1;
  /// Bounded queue depth; a Submit arriving with the queue full is refused
  /// immediately with ErrorCode::Budget (backpressure, not buffering).
  std::size_t queue_capacity = 64;
  /// Daemon-wide telemetry stream: every job's recording is also delivered
  /// here (e.g. a JsonLinesSink from `aspe_cli serve --trace-json`). The
  /// sink must outlive the daemon. May be null. A non-null sink disables
  /// SNMF batch coalescing (a fused sweep cannot attribute spans per job).
  obs::Sink* sink = nullptr;
  /// Warm-cache entry cap (corpora, rank estimates, sessions and MIP basis
  /// states each); a cache is cleared wholesale when it would exceed this.
  std::size_t max_cache_entries = 64;
  /// Resident-byte budget of the shared score-matrix cache, and the
  /// ExecContext::memory_budget_bytes every job runs under. 0 = unbounded.
  std::size_t memory_budget_bytes = 0;
  /// Most SNMF jobs one fused restart sweep may coalesce.
  std::size_t max_snmf_batch = 16;
  /// Most jobs a queued job may be bypassed by for cache affinity before it
  /// becomes un-bypassable (the starvation bound; deadline-bearing jobs are
  /// never bypassed at all).
  std::size_t max_affinity_bypass = 4;
};

class Daemon {
 public:
  /// Result delivery callback: invoked exactly once per submitted job, on
  /// the worker thread (or inside submit() for refused jobs). Must not
  /// throw.
  using Deliver = std::function<void(std::uint64_t, core::AttackResponse&&)>;

  explicit Daemon(DaemonOptions options = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Enqueue a job. Always assigns and returns a job id; when the queue is
  /// full (or the daemon is stopping) the job is refused by delivering an
  /// ErrorCode::Budget response before submit returns.
  std::uint64_t submit(core::AttackRequest request, JobOptions options,
                       Deliver deliver);

  /// Enqueue several jobs atomically (one lock acquisition), so the
  /// scheduler sees the whole batch at once and compatible SNMF jobs can
  /// coalesce into one fused sweep. Ids are assigned in order; jobs beyond
  /// the queue capacity are refused individually, exactly like submit().
  std::vector<std::uint64_t> submit_batch(std::vector<BatchJob> jobs,
                                          Deliver deliver);

  /// Cancel a job that is still queued: it is removed and its response
  /// (ErrorCode::Budget, "job cancelled before execution") is delivered.
  /// Returns false when the job already started, finished, or never
  /// existed — a running attack is never killed (docs/svc.md).
  bool cancel(std::uint64_t job_id);

  /// Pop and execute one queued job on the calling thread, strictly FIFO —
  /// no affinity reordering, no coalescing. False when the queue was empty.
  /// This is the workers == 0 stepping mode; with worker threads running it
  /// simply competes with them.
  bool run_one();

  /// One scheduler step on the calling thread: pop the next job in
  /// cache-affine order plus any compatible queued SNMF peers, and execute
  /// them (fused when more than one). Returns the number of jobs executed
  /// (0 = queue empty). This is exactly what each worker thread loops over;
  /// exposed so scheduler tests can step it deterministically.
  std::size_t run_scheduled();

  /// Execute a request synchronously through the warm caches, bypassing
  /// the queue (used by the workers, and directly by benches/tests).
  /// Never throws; failures map onto the ErrorCode taxonomy exactly like
  /// core::dispatch_attack.
  [[nodiscard]] core::AttackResponse execute(const core::AttackRequest& request,
                                             const JobOptions& options);

  /// Stop the workers. Jobs still queued are delivered as refused
  /// (ErrorCode::Budget, "daemon stopped before execution"); the running
  /// ones finish and deliver normally. Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] DaemonStats stats() const;

 private:
  struct Job {
    std::uint64_t id = 0;
    core::AttackRequest request;
    JobOptions options;
    Deliver deliver;
    std::chrono::steady_clock::time_point deadline{};  // epoch() = none
    /// Corpus identity for cache-affine scheduling: the request's corpus
    /// paths joined with '|' ("" when any corpus is inline — no stable
    /// identity, no affinity). Computed once at submit.
    std::string affinity_key;
    /// Times an affinity pick has jumped over this job while it was queued;
    /// at max_affinity_bypass the job becomes un-bypassable.
    std::size_t bypassed = 0;
  };

  struct LepEntry {
    std::mutex mu;
    std::optional<core::LepSession> session;
  };
  struct CoaEntry {
    std::mutex mu;
    std::optional<core::CoaSession> session;
    std::size_t rank = 0;
  };
  struct CorpusEntry {
    std::string fingerprint;
    std::shared_ptr<const std::vector<scheme::CipherPair>> ciphers;
    std::shared_ptr<const std::vector<Vec>> vecs;
  };
  /// One persistent MIP warm state (the root-LP basis). Serialized per
  /// key: the entry mutex is held across the whole attack, so two identical
  /// MIP jobs never race on the shared basis.
  struct MipBasisEntry {
    std::mutex mu;
    core::MipWarmState state;
  };

  void worker_loop();
  void run_job(Job&& job);
  /// Pop the next job in cache-affine order plus compatible SNMF peers.
  /// Caller holds queue_mu_. Empty when the queue is empty.
  std::vector<std::shared_ptr<Job>> take_batch_locked();
  /// Execute >= 2 coalesced SNMF jobs as one fused restart sweep,
  /// demultiplexing per-job responses. Falls back to solo execution for any
  /// job the fused path cannot serve.
  void run_snmf_batch(std::vector<std::shared_ptr<Job>> jobs);
  [[nodiscard]] core::AttackResponse refused(core::ErrorCode code,
                                             const std::string& message) const;

  enum class CorpusKind { Ciphers, Vecs };

  /// Resolve a path ref through the corpus cache (stat-validated), loading
  /// it as `kind` on a miss. Returns the ref unchanged when it is inline
  /// already. `fingerprint_out`, when non-null, receives the corpus identity
  /// string ("" for inline refs — no stable identity, so no session/rank
  /// caching).
  core::CorpusRef resolve_corpus(const core::CorpusRef& ref, CorpusKind kind,
                                 std::string* fingerprint_out);

  /// Insert a rank estimate, clearing the rank cache first when it is full.
  void cache_rank(const std::string& key, std::size_t rank);

  [[nodiscard]] core::AttackResponse execute_resolved(
      const core::AttackRequest& request, const JobOptions& options);
  [[nodiscard]] core::AttackResponse execute_lep_warm(
      const core::LepRequest& req, const std::string& key,
      const core::ExecContext& ctx);
  [[nodiscard]] core::AttackResponse execute_snmf_warm(
      const core::SnmfRequest& req, const std::string& key,
      const core::ExecContext& ctx);

  DaemonOptions options_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  /// Affinity key of the job most recently popped by the scheduler — the
  /// corpus whose parsed form, score matrix and sessions are warmest.
  /// Guarded by queue_mu_.
  std::string last_affinity_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_id_{1};

  std::mutex cache_mu_;  // guards the maps (not the entries)
  std::map<std::string, CorpusEntry> corpus_cache_;
  std::map<std::string, std::size_t> rank_cache_;
  std::map<std::string, std::shared_ptr<LepEntry>> lep_sessions_;
  std::map<std::string, std::shared_ptr<CoaEntry>> coa_sessions_;
  std::map<std::string, std::shared_ptr<MipBasisEntry>> mip_basis_;

  core::ScoreMatrixCache score_cache_;

  std::atomic<std::uint64_t> submitted_{0}, completed_{0}, cancelled_{0},
      expired_{0}, rejected_{0}, corpus_hits_{0}, rank_hits_{0},
      lep_hits_{0}, snmf_resumes_{0}, batches_formed_{0}, batched_jobs_{0},
      affinity_hits_{0}, basis_hits_{0};
};

// ------------------------------------------------------------------ server

struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket. A stale socket
  /// file from a previous run is replaced.
  std::string socket_path;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// Accepts connections on a Unix-domain socket and speaks the framed
/// protocol, routing Submit frames into a Daemon. One handler thread per
/// connection; responses are written under a per-connection lock so a
/// worker delivering a result never interleaves with a protocol reply.
/// Malformed frames (bad magic, oversized length prefix, truncation,
/// unknown type/tag) answer with a ProtocolError frame where possible and
/// close that connection only — the daemon and its other clients are
/// unaffected, as is a client that disconnects while its job is running.
class Server {
 public:
  Server(Daemon& daemon, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Block until a client sends a Shutdown frame (or stop() is called).
  void wait();

  /// Close the listener and every connection, join the handler threads.
  /// Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }

 private:
  struct Connection;

  void accept_loop();
  void handle_connection(const std::shared_ptr<Connection>& conn);

  Daemon& daemon_;
  ServerOptions options_;
  int listen_fd_ = -1;
  std::thread accept_thread_;

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
  std::vector<std::thread> handlers_;
  std::vector<std::weak_ptr<Connection>> connections_;
};

}  // namespace aspe::svc
