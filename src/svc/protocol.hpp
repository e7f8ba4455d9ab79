// The aspe::svc job protocol: length-prefixed frames over a Unix-domain
// socket, carrying the unified core::AttackRequest / core::AttackResponse
// vocabulary (core/attack_api.hpp).
//
// Framing (all scalars native-endian; both ends share a host):
//
//   offset size  field
//   0      4    magic "ASV1"
//   4      4    u32 frame type (FrameType)
//   8      8    u64 payload byte count
//   16     ...  payload
//
// A reader validates magic and type and bounds the payload length against
// its configured maximum *before* allocating; frames larger than the limit,
// unknown types and short reads are protocol errors — the server answers
// with a ProtocolError frame and closes the connection (its decode state is
// unknowable past the first bad byte). Payload decoding goes through
// svc::WireReader, whose length prefixes are overflow-checked with the same
// io::checked_mul guard as the io::v2 envelope.
//
// Job lifecycle (see docs/svc.md for the full state machine):
//
//   client                       server
//   Submit{JobOptions, req} ->
//                             <- Accepted{job id}          (or ProtocolError)
//                             <- Result{job id, response}
//   Cancel{job id}          ->
//                             <- CancelAck{job id, hit}
//   Ping                    ->
//                             <- Pong
//   Shutdown                ->
//                             <- ShutdownAck               (server drains+exits)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/attack_api.hpp"
#include "svc/wire.hpp"

namespace aspe::svc {

inline constexpr std::uint32_t kFrameMagic = 0x31565341u;  // "ASV1"
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Default cap on one frame's payload. Generous for real corpora (256 MiB)
/// while rejecting absurd length prefixes long before allocation.
inline constexpr std::size_t kDefaultMaxFrameBytes = 256u << 20;

enum class FrameType : std::uint32_t {
  // client -> server
  Submit = 1,
  Cancel = 2,
  Ping = 3,
  Shutdown = 4,
  /// N jobs in one frame: u64 count, then count x (JobOptions, request).
  /// The server queues each job as if it came in its own Submit frame and
  /// answers with one Accepted frame per job, in submission order, each
  /// before that job's Result.
  SubmitBatch = 5,
  // server -> client
  Accepted = 16,
  Result = 17,
  Pong = 18,
  ShutdownAck = 19,
  ProtocolError = 20,
  CancelAck = 21,
};

/// Per-job execution policy carried in the Submit frame next to the
/// AttackRequest (the fields of core::ExecContext that make sense to ship,
/// plus the job deadline).
struct JobOptions {
  std::size_t threads = 1;
  std::uint64_t seed = 2017;
  /// 0 = no deadline. Otherwise the job must *start* within this many
  /// milliseconds of the daemon accepting it; a job still queued when the
  /// deadline passes fails with ErrorCode::Budget (running jobs are never
  /// killed mid-attack — see docs/svc.md).
  std::uint64_t deadline_ms = 0;
  /// Record the run (per-job obs recording) and return span aggregates in
  /// the response telemetry. Never changes attack output.
  bool want_telemetry = false;
};

struct Frame {
  FrameType type = FrameType::Ping;
  std::vector<std::uint8_t> payload;
};

/// Monotonic counters describing the daemon's life so far. Shipped verbatim
/// in the Pong payload (encode_daemon_stats), so `aspe_cli submit --ping`
/// can print a one-line health summary without a side channel. An empty
/// Pong payload (a pre-stats server) decodes as "no stats".
struct DaemonStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  // executed, any status
  std::uint64_t cancelled = 0;  // cancelled while still queued
  std::uint64_t expired = 0;    // deadline passed before execution
  std::uint64_t rejected = 0;   // refused at submit (queue full)
  std::uint64_t corpus_cache_hits = 0;
  std::uint64_t rank_cache_hits = 0;
  std::uint64_t lep_session_hits = 0;
  std::uint64_t snmf_resumes = 0;      // CoA session hits
  // Retired with the batching scheduler: always 0, kept so the Pong
  // layout (and readers of these fields) stay unchanged.
  std::uint64_t batches_formed = 0;
  std::uint64_t batched_jobs = 0;
  std::uint64_t affinity_hits = 0;
  std::uint64_t basis_cache_hits = 0;  // MIP basis hits
  // The warm-state store's score-matrix kind.
  std::uint64_t score_cache_hits = 0;
  std::uint64_t score_cache_misses = 0;
  std::uint64_t score_cache_evictions = 0;
  std::uint64_t score_cache_bytes = 0;  // snapshot, not monotonic
  std::size_t queue_depth = 0;          // snapshot, not monotonic
  std::uint64_t cache_bytes = 0;  // store bytes over all kinds, snapshot
};

// --------------------------------------------------------- payload codecs

void encode_job_options(WireWriter& w, const JobOptions& opts);
[[nodiscard]] JobOptions decode_job_options(WireReader& r);

/// Encode/decode the full request variant, CorpusRefs included (paths are
/// shipped as strings, inline payloads as length-prefixed arrays).
void encode_request(WireWriter& w, const core::AttackRequest& req);
[[nodiscard]] core::AttackRequest decode_request(WireReader& r);

/// Encode/decode a response, result variant and telemetry included, so a
/// daemon job round-trips bit-identically to the in-process result.
void encode_response(WireWriter& w, const core::AttackResponse& resp);
[[nodiscard]] core::AttackResponse decode_response(WireReader& r);

/// Encode/decode the daemon stats block of a Pong payload.
void encode_daemon_stats(WireWriter& w, const DaemonStats& stats);
[[nodiscard]] DaemonStats decode_daemon_stats(WireReader& r);

/// One job of a SubmitBatch frame.
struct BatchJob {
  core::AttackRequest request;
  JobOptions options;
};

// Whole-frame payload builders used by client and server.
[[nodiscard]] std::vector<std::uint8_t> build_submit_payload(
    const core::AttackRequest& req, const JobOptions& opts);
[[nodiscard]] std::vector<std::uint8_t> build_submit_batch_payload(
    const std::vector<BatchJob>& jobs);
[[nodiscard]] std::vector<std::uint8_t> build_result_payload(
    std::uint64_t job_id, const core::AttackResponse& resp);

// ----------------------------------------------------------------- frame IO

/// Write one frame to `fd` (loops over partial writes, suppresses SIGPIPE).
/// Returns false when the peer is gone (EPIPE / reset) — the caller decides
/// whether that matters; a daemon delivering to a vanished client does not.
bool send_frame(int fd, FrameType type,
                const std::vector<std::uint8_t>& payload);

/// Read one frame. Returns std::nullopt on clean EOF at a frame boundary.
/// Throws io::IoError on a malformed header (bad magic), a payload length
/// above `max_frame_bytes`, or EOF mid-frame (a truncated frame).
[[nodiscard]] std::optional<Frame> recv_frame(
    int fd, std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

}  // namespace aspe::svc
