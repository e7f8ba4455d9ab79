#include "svc/protocol.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/obs.hpp"

namespace aspe::svc {

namespace {

// ---- corpora -------------------------------------------------------------

enum class RefMode : std::uint8_t { Empty = 0, Path = 1, Ciphers = 2, Vecs = 3 };

void encode_corpus_ref(WireWriter& w, const core::CorpusRef& ref) {
  if (!ref.path.empty()) {
    w.u8(static_cast<std::uint8_t>(RefMode::Path));
    w.str(ref.path);
  } else if (ref.ciphers != nullptr) {
    w.u8(static_cast<std::uint8_t>(RefMode::Ciphers));
    w.u64(ref.ciphers->size());
    for (const auto& c : *ref.ciphers) {
      w.vec(c.a);
      w.vec(c.b);
    }
  } else if (ref.vecs != nullptr) {
    w.u8(static_cast<std::uint8_t>(RefMode::Vecs));
    w.u64(ref.vecs->size());
    for (const auto& v : *ref.vecs) w.vec(v);
  } else {
    w.u8(static_cast<std::uint8_t>(RefMode::Empty));
  }
}

core::CorpusRef decode_corpus_ref(WireReader& r) {
  const auto mode = r.u8();
  switch (static_cast<RefMode>(mode)) {
    case RefMode::Empty:
      return {};
    case RefMode::Path:
      return core::CorpusRef::from_path(r.str());
    case RefMode::Ciphers: {
      // Minimum bytes per pair: two empty vecs = two u64 length prefixes.
      const std::size_t n = r.count(16, "svc corpus cipher count");
      std::vector<scheme::CipherPair> db(n);
      for (auto& c : db) {
        c.a = r.vec();
        c.b = r.vec();
      }
      return core::CorpusRef::inline_ciphers(std::move(db));
    }
    case RefMode::Vecs: {
      const std::size_t n = r.count(8, "svc corpus vec count");
      std::vector<Vec> vs(n);
      for (auto& v : vs) v = r.vec();
      return core::CorpusRef::inline_vecs(std::move(vs));
    }
    default:
      throw io::IoError("svc: unknown corpus reference mode " +
                        std::to_string(mode));
  }
}

// ---- telemetry -----------------------------------------------------------

void encode_telemetry(WireWriter& w, const core::AttackTelemetry& t) {
  w.f64(t.wall_seconds);
  w.u64(t.spans.size());
  for (const auto& s : t.spans) {
    w.str(s.name);
    w.u64(s.count);
    w.f64(s.total_seconds);
  }
  w.u64(t.counters.size());
  for (const auto& [name, value] : t.counters) {
    w.str(name);
    w.f64(value);
  }
  w.u64(t.gauges.size());
  for (const auto& [name, value] : t.gauges) {
    w.str(name);
    w.f64(value);
  }
}

core::AttackTelemetry decode_telemetry(WireReader& r) {
  core::AttackTelemetry t;
  t.wall_seconds = r.f64();
  // Minimum bytes per span row: name prefix (8) + count (8) + seconds (8).
  const std::size_t spans = r.count(24, "svc telemetry span count");
  t.spans.resize(spans);
  for (auto& s : t.spans) {
    s.name = r.str();
    s.count = static_cast<std::size_t>(r.u64());
    s.total_seconds = r.f64();
  }
  const std::size_t counters = r.count(16, "svc telemetry counter count");
  for (std::size_t i = 0; i < counters; ++i) {
    std::string name = r.str();
    t.counters[std::move(name)] = r.f64();
  }
  const std::size_t gauges = r.count(16, "svc telemetry gauge count");
  for (std::size_t i = 0; i < gauges; ++i) {
    std::string name = r.str();
    t.gauges[std::move(name)] = r.f64();
  }
  return t;
}

// ---- vectors-of-vectors helpers -----------------------------------------

void encode_vec_list(WireWriter& w, const std::vector<Vec>& vs) {
  w.u64(vs.size());
  for (const auto& v : vs) w.vec(v);
}

std::vector<Vec> decode_vec_list(WireReader& r) {
  const std::size_t n = r.count(8, "svc vec list count");
  std::vector<Vec> vs(n);
  for (auto& v : vs) v = r.vec();
  return vs;
}

void encode_bits_list(WireWriter& w, const std::vector<BitVec>& vs) {
  w.u64(vs.size());
  for (const auto& v : vs) w.bits(v);
}

std::vector<BitVec> decode_bits_list(WireReader& r) {
  const std::size_t n = r.count(8, "svc bitvec list count");
  std::vector<BitVec> vs(n);
  for (auto& v : vs) v = r.bits();
  return vs;
}

}  // namespace

// ---- job options ---------------------------------------------------------

void encode_job_options(WireWriter& w, const JobOptions& opts) {
  w.u64(opts.threads);
  w.u64(opts.seed);
  w.u64(opts.deadline_ms);
  w.u8(opts.want_telemetry ? 1 : 0);
}

JobOptions decode_job_options(WireReader& r) {
  JobOptions opts;
  opts.threads = static_cast<std::size_t>(r.u64());
  opts.seed = r.u64();
  opts.deadline_ms = r.u64();
  opts.want_telemetry = r.u8() != 0;
  return opts;
}

// ---- requests ------------------------------------------------------------

void encode_request(WireWriter& w, const core::AttackRequest& req) {
  w.u8(static_cast<std::uint8_t>(req.kind()));
  switch (req.kind()) {
    case core::AttackKind::Lep: {
      const auto& lep = std::get<core::LepRequest>(req.request);
      encode_corpus_ref(w, lep.known_plain);
      encode_corpus_ref(w, lep.db);
      encode_corpus_ref(w, lep.trapdoors);
      w.f64(lep.options.independence_tol);
      break;
    }
    case core::AttackKind::Mip: {
      const auto& mip = std::get<core::MipRequest>(req.request);
      encode_corpus_ref(w, mip.known_plain);
      encode_corpus_ref(w, mip.db);
      encode_corpus_ref(w, mip.trapdoors);
      w.u64(mip.trapdoor_id);
      w.f64(mip.mu);
      w.f64(mip.sigma);
      // The CLI-surfaced solver knobs; remaining MipAttackOptions fields
      // keep their defaults on the receiving side (docs/svc.md).
      w.f64(mip.options.l);
      w.f64(mip.options.solver.time_limit_seconds);
      w.u64(mip.options.solver.max_nodes);
      break;
    }
    case core::AttackKind::Snmf: {
      const auto& snmf = std::get<core::SnmfRequest>(req.request);
      encode_corpus_ref(w, snmf.db);
      encode_corpus_ref(w, snmf.trapdoors);
      w.u64(snmf.options.rank);
      w.u64(snmf.options.restarts);
      w.u64(snmf.options.nmf.max_iterations);
      w.f64(snmf.options.theta);
      w.f64(snmf.options.rank_tol);
      w.u8(snmf.reuse_session ? 1 : 0);
      break;
    }
  }
}

core::AttackRequest decode_request(WireReader& r) {
  const auto tag = r.u8();
  core::AttackRequest out;
  switch (static_cast<core::AttackKind>(tag)) {
    case core::AttackKind::Lep: {
      core::LepRequest lep;
      lep.known_plain = decode_corpus_ref(r);
      lep.db = decode_corpus_ref(r);
      lep.trapdoors = decode_corpus_ref(r);
      lep.options.independence_tol = r.f64();
      out.request = std::move(lep);
      return out;
    }
    case core::AttackKind::Mip: {
      core::MipRequest mip;
      mip.known_plain = decode_corpus_ref(r);
      mip.db = decode_corpus_ref(r);
      mip.trapdoors = decode_corpus_ref(r);
      mip.trapdoor_id = static_cast<std::size_t>(r.u64());
      mip.mu = r.f64();
      mip.sigma = r.f64();
      mip.options.l = r.f64();
      mip.options.solver.time_limit_seconds = r.f64();
      mip.options.solver.max_nodes = static_cast<std::size_t>(r.u64());
      out.request = std::move(mip);
      return out;
    }
    case core::AttackKind::Snmf: {
      core::SnmfRequest snmf;
      snmf.db = decode_corpus_ref(r);
      snmf.trapdoors = decode_corpus_ref(r);
      snmf.options.rank = static_cast<std::size_t>(r.u64());
      snmf.options.restarts = static_cast<std::size_t>(r.u64());
      snmf.options.nmf.max_iterations = static_cast<std::size_t>(r.u64());
      snmf.options.theta = r.f64();
      snmf.options.rank_tol = r.f64();
      snmf.reuse_session = r.u8() != 0;
      out.request = std::move(snmf);
      return out;
    }
    default:
      throw io::IoError("svc: unknown attack request tag " +
                        std::to_string(tag));
  }
}

// ---- responses -----------------------------------------------------------

namespace {

enum class ResultTag : std::uint8_t { None = 0, Lep = 1, Mip = 2, Snmf = 3 };

}  // namespace

void encode_response(WireWriter& w, const core::AttackResponse& resp) {
  w.u8(static_cast<std::uint8_t>(resp.status));
  w.u8(static_cast<std::uint8_t>(resp.error));
  w.str(resp.message);
  if (std::holds_alternative<core::LepResult>(resp.result)) {
    const auto& lep = resp.lep();
    w.u8(static_cast<std::uint8_t>(ResultTag::Lep));
    encode_vec_list(w, lep.trapdoors);
    encode_vec_list(w, lep.queries);
    w.vec(lep.query_multipliers);
    encode_vec_list(w, lep.indexes);
    encode_vec_list(w, lep.records);
  } else if (std::holds_alternative<core::MipAttackResult>(resp.result)) {
    const auto& mip = resp.mip();
    w.u8(static_cast<std::uint8_t>(ResultTag::Mip));
    w.u8(mip.found ? 1 : 0);
    w.bits(mip.query);
    w.f64(mip.rhat);
    w.f64(mip.that);
    w.u8(static_cast<std::uint8_t>(mip.status));
  } else if (std::holds_alternative<core::SnmfAttackResult>(resp.result)) {
    const auto& snmf = resp.snmf();
    w.u8(static_cast<std::uint8_t>(ResultTag::Snmf));
    encode_bits_list(w, snmf.indexes);
    encode_bits_list(w, snmf.trapdoors);
    w.f64(snmf.best_fit_error);
  } else {
    w.u8(static_cast<std::uint8_t>(ResultTag::None));
  }
  encode_telemetry(w, resp.telemetry);
}

core::AttackResponse decode_response(WireReader& r) {
  core::AttackResponse resp;
  const auto status = r.u8();
  if (status > static_cast<std::uint8_t>(core::AttackStatus::Failed)) {
    throw io::IoError("svc: unknown response status " + std::to_string(status));
  }
  resp.status = static_cast<core::AttackStatus>(status);
  const auto code = r.u8();
  if (code > static_cast<std::uint8_t>(core::ErrorCode::Internal)) {
    throw io::IoError("svc: unknown error code " + std::to_string(code));
  }
  resp.error = static_cast<core::ErrorCode>(code);
  resp.message = r.str();
  const auto tag = r.u8();
  switch (static_cast<ResultTag>(tag)) {
    case ResultTag::None:
      break;
    case ResultTag::Lep: {
      core::LepResult lep;
      lep.trapdoors = decode_vec_list(r);
      lep.queries = decode_vec_list(r);
      lep.query_multipliers = r.vec();
      lep.indexes = decode_vec_list(r);
      lep.records = decode_vec_list(r);
      resp.result = std::move(lep);
      break;
    }
    case ResultTag::Mip: {
      core::MipAttackResult mip;
      mip.found = r.u8() != 0;
      mip.query = r.bits();
      mip.rhat = r.f64();
      mip.that = r.f64();
      mip.status = static_cast<opt::MipStatus>(r.u8());
      resp.result = std::move(mip);
      break;
    }
    case ResultTag::Snmf: {
      core::SnmfAttackResult snmf;
      snmf.indexes = decode_bits_list(r);
      snmf.trapdoors = decode_bits_list(r);
      snmf.best_fit_error = r.f64();
      resp.result = std::move(snmf);
      break;
    }
    default:
      throw io::IoError("svc: unknown result tag " + std::to_string(tag));
  }
  resp.telemetry = decode_telemetry(r);
  // Mirror the telemetry into the result variant so daemon-side and
  // in-process results expose it identically.
  if (auto* lep = std::get_if<core::LepResult>(&resp.result)) {
    lep->telemetry = resp.telemetry;
  } else if (auto* mip = std::get_if<core::MipAttackResult>(&resp.result)) {
    mip->telemetry = resp.telemetry;
  } else if (auto* snmf = std::get_if<core::SnmfAttackResult>(&resp.result)) {
    snmf->telemetry = resp.telemetry;
  }
  return resp;
}

void encode_daemon_stats(WireWriter& w, const DaemonStats& stats) {
  w.u64(stats.submitted);
  w.u64(stats.completed);
  w.u64(stats.cancelled);
  w.u64(stats.expired);
  w.u64(stats.rejected);
  w.u64(stats.corpus_cache_hits);
  w.u64(stats.rank_cache_hits);
  w.u64(stats.lep_session_hits);
  w.u64(stats.snmf_resumes);
  w.u64(stats.batches_formed);
  w.u64(stats.batched_jobs);
  w.u64(stats.affinity_hits);
  w.u64(stats.basis_cache_hits);
  w.u64(stats.score_cache_hits);
  w.u64(stats.score_cache_misses);
  w.u64(stats.score_cache_evictions);
  w.u64(stats.score_cache_bytes);
  w.u64(stats.queue_depth);
  w.u64(stats.cache_bytes);
}

DaemonStats decode_daemon_stats(WireReader& r) {
  DaemonStats stats;
  stats.submitted = r.u64();
  stats.completed = r.u64();
  stats.cancelled = r.u64();
  stats.expired = r.u64();
  stats.rejected = r.u64();
  stats.corpus_cache_hits = r.u64();
  stats.rank_cache_hits = r.u64();
  stats.lep_session_hits = r.u64();
  stats.snmf_resumes = r.u64();
  stats.batches_formed = r.u64();
  stats.batched_jobs = r.u64();
  stats.affinity_hits = r.u64();
  stats.basis_cache_hits = r.u64();
  stats.score_cache_hits = r.u64();
  stats.score_cache_misses = r.u64();
  stats.score_cache_evictions = r.u64();
  stats.score_cache_bytes = r.u64();
  stats.queue_depth = static_cast<std::size_t>(r.u64());
  stats.cache_bytes = r.u64();
  return stats;
}

std::vector<std::uint8_t> build_submit_payload(const core::AttackRequest& req,
                                               const JobOptions& opts) {
  WireWriter w;
  encode_job_options(w, opts);
  encode_request(w, req);
  return w.take();
}

std::vector<std::uint8_t> build_submit_batch_payload(
    const std::vector<BatchJob>& jobs) {
  WireWriter w;
  w.u64(jobs.size());
  for (const BatchJob& job : jobs) {
    encode_job_options(w, job.options);
    encode_request(w, job.request);
  }
  return w.take();
}

std::vector<std::uint8_t> build_result_payload(
    std::uint64_t job_id, const core::AttackResponse& resp) {
  WireWriter w;
  w.u64(job_id);
  encode_response(w, resp);
  return w.take();
}

// ---- frame IO ------------------------------------------------------------

bool send_frame(int fd, FrameType type,
                const std::vector<std::uint8_t>& payload) {
  unsigned char header[kFrameHeaderBytes];
  const std::uint32_t magic = kFrameMagic;
  const auto type_raw = static_cast<std::uint32_t>(type);
  const std::uint64_t len = payload.size();
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &type_raw, 4);
  std::memcpy(header + 8, &len, 8);

  const auto send_all = [fd](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    while (n > 0) {
      const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        return false;  // peer gone (EPIPE) or socket dead
      }
      p += sent;
      n -= static_cast<std::size_t>(sent);
    }
    return true;
  };

  if (!send_all(header, sizeof header)) return false;
  return payload.empty() || send_all(payload.data(), payload.size());
}

std::optional<Frame> recv_frame(int fd, std::size_t max_frame_bytes) {
  const auto recv_all = [fd](void* data, std::size_t n, bool* clean_eof) {
    auto* p = static_cast<unsigned char*>(data);
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd, p + got, n - got, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        throw io::IoError(std::string("svc: socket read failed: ") +
                          std::strerror(errno));
      }
      if (r == 0) {
        if (clean_eof != nullptr && got == 0) {
          *clean_eof = true;
          return;
        }
        throw io::IoError("svc: truncated frame (peer closed mid-frame)");
      }
      got += static_cast<std::size_t>(r);
    }
  };

  unsigned char header[kFrameHeaderBytes];
  bool clean_eof = false;
  recv_all(header, sizeof header, &clean_eof);
  if (clean_eof) return std::nullopt;

  std::uint32_t magic = 0, type_raw = 0;
  std::uint64_t len = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&type_raw, header + 4, 4);
  std::memcpy(&len, header + 8, 8);
  if (magic != kFrameMagic) {
    throw io::IoError("svc: bad frame magic");
  }
  if (len > max_frame_bytes) {
    throw io::IoError("svc: frame payload of " + std::to_string(len) +
                      " bytes exceeds the " +
                      std::to_string(max_frame_bytes) + "-byte limit");
  }
  Frame f;
  f.type = static_cast<FrameType>(type_raw);
  f.payload.resize(static_cast<std::size_t>(len));
  if (len > 0) recv_all(f.payload.data(), f.payload.size(), nullptr);
  if (obs::enabled()) {
    obs::counter_add("svc.frames_received", 1.0);
    obs::counter_add("svc.bytes_received",
                     static_cast<double>(len + kFrameHeaderBytes));
  }
  return f;
}

}  // namespace aspe::svc
