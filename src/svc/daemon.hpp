// aspe::svc — the long-running attack service.
//
// A Daemon is a job queue plus stats in front of core::dispatch_attack.
// Jobs arrive as core::AttackRequest values (decoded from Submit frames by
// the Server, or handed in directly by in-process callers), wait in a
// bounded FIFO queue with per-job deadlines and cancellation, run through
// dispatch_attack with the daemon's one core::WarmStore, and leave as
// core::AttackResponse. The store holds, under one byte budget, the warm
// state that one-shot CLI invocations rebuild on every run; dispatch
// decides what to keep and how to key it (docs/api.md), so a daemon job
// answers exactly like the one-shot CLI.
//
// Threading: Daemon::submit/cancel/execute are safe to call from any
// thread. Worker threads execute jobs concurrently; the attacks' parallel
// sections share the process pool (a second concurrent batch degrades to
// serial inside the pool, so results stay bit-identical at any worker
// count).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/attack_api.hpp"
#include "core/warm_store.hpp"
#include "obs/obs.hpp"
#include "svc/protocol.hpp"

namespace aspe::svc {

struct DaemonOptions {
  /// Job-execution threads. 0 builds a stepping daemon that runs jobs only
  /// through run_one() — the deterministic mode the queue tests drive.
  std::size_t workers = 1;
  /// Bounded queue depth; a Submit arriving with the queue full is refused
  /// immediately with ErrorCode::Budget (backpressure, not buffering).
  std::size_t queue_capacity = 64;
  /// Daemon-wide telemetry stream: every job's recording is also delivered
  /// here (e.g. a JsonLinesSink from `aspe_cli serve --trace-json`). The
  /// sink must outlive the daemon. May be null.
  obs::Sink* sink = nullptr;
  /// Resident-byte budget of the warm-state store (all kinds together),
  /// and the ExecContext::memory_budget_bytes every job runs under.
  /// 0 = unbounded.
  std::size_t memory_budget_bytes = 0;
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

  /// Cancel a job that is still queued: it is removed and its response
  /// (ErrorCode::Budget, "job cancelled before execution") is delivered.
  /// Returns false when the job already started, finished, or never
  /// existed — a running attack is never killed (docs/svc.md).
  bool cancel(std::uint64_t job_id);

  /// Pop the oldest queued job and execute it on the calling thread. False
  /// when the queue was empty. Each worker thread loops over exactly this;
  /// with workers == 0 it is the only way jobs run.
  bool run_one();

  /// Execute a request synchronously through core::dispatch_attack with
  /// the warm-state store, bypassing the queue (used by the workers, and
  /// directly by benches/tests). Never throws; failures map onto the
  /// ErrorCode taxonomy.
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
  };

  void worker_loop();
  [[nodiscard]] core::AttackResponse refused(core::ErrorCode code,
                                             const std::string& message) const;

  DaemonOptions options_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_id_{1};

  core::WarmStore store_;

  std::atomic<std::uint64_t> submitted_{0}, completed_{0}, cancelled_{0},
      expired_{0}, rejected_{0};
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
  /// Submit one decoded job, answering Accepted before its Result.
  void submit_job(const std::shared_ptr<Connection>& conn,
                  core::AttackRequest request, const JobOptions& options);

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
