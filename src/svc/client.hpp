// Blocking client for the aspe::svc protocol (svc/protocol.hpp).
//
// One Client owns one connected Unix-domain socket. It is not thread-safe —
// concurrent callers each construct their own (the bench harness gives every
// client thread one). Jobs may be pipelined on a single connection: call
// submit() several times, then wait() each id in any order; frames arriving
// out of the caller's order (another job's Result, a CancelAck racing a
// Result) are buffered and handed out when asked for.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/attack_api.hpp"
#include "svc/protocol.hpp"

namespace aspe::svc {

class Client {
 public:
  /// Connect to a daemon's socket. Throws io::IoError when the socket does
  /// not exist or nothing is listening.
  explicit Client(const std::string& socket_path,
                  std::size_t max_frame_bytes = kDefaultMaxFrameBytes);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Ship a job; blocks until the daemon's Accepted frame and returns the
  /// job id. The result (including a Budget refusal) arrives via wait().
  std::uint64_t submit(const core::AttackRequest& request,
                       const JobOptions& options = {});

  /// Ship several jobs in one SubmitBatch frame; blocks until every job's
  /// Accepted frame and returns the ids in submission order. The daemon
  /// queues each job exactly as if it had arrived in its own Submit frame;
  /// the batch saves round trips, not work. Results arrive via wait(), any
  /// order.
  std::vector<std::uint64_t> submit_batch(const std::vector<BatchJob>& jobs);

  /// Block until the Result frame for `job_id` arrives.
  core::AttackResponse wait(std::uint64_t job_id);

  /// submit() + wait() in one call.
  core::AttackResponse run(const core::AttackRequest& request,
                           const JobOptions& options = {});

  /// Ask the daemon to cancel a job. True when the job was still queued
  /// (its wait() then reports the Budget refusal); false when it already
  /// started or finished — a running job is never killed.
  bool cancel(std::uint64_t job_id);

  /// Round-trip a Ping. False when the connection is dead.
  bool ping();

  /// Round-trip a Ping and return the daemon stats its Pong carried.
  /// nullopt when the connection is dead or the server predates the stats
  /// payload (an empty Pong).
  std::optional<DaemonStats> ping_stats();

  /// Request daemon shutdown and wait for the acknowledgement.
  void shutdown_server();

  /// The raw connected socket (protocol tests poke malformed bytes at it).
  [[nodiscard]] int fd() const { return fd_; }

 private:
  /// Read one frame (throws io::IoError on EOF — the server never closes
  /// first in a healthy exchange) and file it into the pending buffers.
  /// A ProtocolError frame from the server throws with its message.
  void pump(const char* waiting_for);

  int fd_ = -1;
  std::size_t max_frame_bytes_;
  std::deque<std::uint64_t> accepted_;
  std::map<std::uint64_t, core::AttackResponse> results_;
  std::deque<std::pair<std::uint64_t, bool>> cancel_acks_;
  std::deque<std::vector<std::uint8_t>> pongs_;
  bool shutdown_acked_ = false;
};

}  // namespace aspe::svc
