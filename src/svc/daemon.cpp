#include "svc/daemon.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace aspe::svc {

namespace {

using core::WarmKind;

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
  s.lep_session_hits = warm[WarmKind::Lep].hits;
  s.snmf_resumes = warm[WarmKind::Coa].hits;
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

// --------------------------------------------------------------- execution

core::AttackResponse Daemon::execute(const core::AttackRequest& request,
                                     const JobOptions& options) {
  core::ExecContext ctx;
  ctx.threads = options.threads;
  ctx.seed = options.seed;
  ctx.memory_budget_bytes = options_.memory_budget_bytes;
  ForwardSink collector(options_.sink);
  if (options.want_telemetry || options_.sink != nullptr) {
    ctx.sink = &collector;
  }
  core::AttackResponse resp = core::dispatch_attack(request, ctx, &store_);
  if (!options.want_telemetry) {
    resp.telemetry.spans.clear();
    resp.telemetry.gauges.clear();
  }
  // The job has let go of its warm state: settle back under the budget.
  store_.trim();
  return resp;
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
          // Minimum bytes per job: the fixed-size JobOptions block (25)
          // plus a one-byte request tag.
          const std::size_t n = r.count(26, "svc submit-batch job count");
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
