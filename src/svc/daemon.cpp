#include "svc/daemon.hpp"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <initializer_list>
#include <set>
#include <sstream>
#include <utility>

#include "scheme/plain_index.hpp"
#include "sse/adversary_view.hpp"

namespace aspe::svc {

namespace {

/// Per-job recording target: keeps the merged Summary for the response and
/// forwards it to the daemon-wide sink (when one is configured).
class ForwardSink final : public obs::Sink {
 public:
  explicit ForwardSink(obs::Sink* downstream) : downstream_(downstream) {}

  void consume(const obs::Summary& summary) override {
    last_ = summary;
    if (downstream_ != nullptr) downstream_->consume(summary);
  }

  [[nodiscard]] const obs::Summary& last() const { return last_; }

 private:
  obs::Sink* downstream_;
  obs::Summary last_;
};

/// Corpus identity for the warm caches: path plus size plus mtime. Nullopt
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

/// Corpus identity for cache-affine scheduling: every corpus path of the
/// request joined with '|'. Empty when any corpus is inline or unnamed —
/// those jobs have no stable warm state to be affine to.
std::string affinity_key_of(const core::AttackRequest& request) {
  const auto join = [](std::initializer_list<const core::CorpusRef*> refs) {
    std::string key;
    for (const auto* ref : refs) {
      if (ref->path.empty()) return std::string();
      if (!key.empty()) key += '|';
      key += ref->path;
    }
    return key;
  };
  return std::visit(
      [&](const auto& req) {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, core::LepRequest>) {
          return join({&req.known_plain, &req.db, &req.trapdoors});
        } else if constexpr (std::is_same_v<T, core::MipRequest>) {
          return join({&req.known_plain, &req.db, &req.trapdoors});
        } else {
          return join({&req.db, &req.trapdoors});
        }
      },
      request.request);
}

/// Format a double for a cache-key string (round-trippable, locale-free).
std::string key_f64(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

// ------------------------------------------------------------------ daemon

Daemon::Daemon(DaemonOptions options) : options_(options) {
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
  job->affinity_key = affinity_key_of(job->request);
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

std::vector<std::uint64_t> Daemon::submit_batch(std::vector<BatchJob> jobs,
                                                Deliver deliver) {
  std::vector<std::uint64_t> ids;
  ids.reserve(jobs.size());
  std::vector<std::shared_ptr<Job>> refusals;
  bool stopping = false;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stopping = stopping_;
    for (BatchJob& bj : jobs) {
      const std::uint64_t id =
          next_id_.fetch_add(1, std::memory_order_relaxed);
      submitted_.fetch_add(1, std::memory_order_relaxed);
      ids.push_back(id);
      auto job = std::make_shared<Job>();
      job->id = id;
      job->request = std::move(bj.request);
      job->options = bj.options;
      job->deliver = deliver;
      job->affinity_key = affinity_key_of(job->request);
      if (bj.options.deadline_ms > 0) {
        job->deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(bj.options.deadline_ms);
      }
      if (!stopping && queue_.size() < options_.queue_capacity) {
        queue_.push_back(std::move(job));
      } else {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        refusals.push_back(std::move(job));
      }
    }
  }
  queue_cv_.notify_all();
  for (const auto& job : refusals) {
    job->deliver(job->id, refused(core::ErrorCode::Budget,
                                  stopping ? "daemon is stopping"
                                           : "queue full: job refused"));
  }
  return ids;
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
  run_job(std::move(*job));
  return true;
}

void Daemon::worker_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;  // queue drained by stop()
    }
    // Raced pops (another worker emptied the queue between the wait and
    // here) return 0 and loop back into the wait.
    run_scheduled();
  }
}

std::vector<std::shared_ptr<Daemon::Job>> Daemon::take_batch_locked() {
  std::vector<std::shared_ptr<Job>> out;
  if (queue_.empty()) return out;

  // --- cache-affine pick -------------------------------------------------
  // Prefer the first queued job whose corpus state is warm (affinity key ==
  // the last scheduled job's), but never jump over a deadline-bearing job
  // or one already bypassed max_affinity_bypass times — the starvation
  // bound that keeps deadlines meaningful. Ties break on queue order, so
  // the schedule is deterministic for a given queue state.
  std::size_t pick = 0;
  if (!last_affinity_.empty()) {
    std::size_t match = queue_.size();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i]->affinity_key == last_affinity_) {
        match = i;
        break;
      }
    }
    if (match < queue_.size()) {
      bool allowed = true;
      for (std::size_t i = 0; i < match; ++i) {
        if (queue_[i]->deadline != std::chrono::steady_clock::time_point{} ||
            queue_[i]->bypassed >= options_.max_affinity_bypass) {
          allowed = false;
          break;
        }
      }
      if (allowed) pick = match;
    }
  }
  std::shared_ptr<Job> first = queue_[pick];
  if (!last_affinity_.empty() && first->affinity_key == last_affinity_) {
    affinity_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < pick; ++i) ++queue_[i]->bypassed;
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
  if (!first->affinity_key.empty()) last_affinity_ = first->affinity_key;
  out.push_back(first);

  // --- SNMF coalescing ---------------------------------------------------
  // Extract queued jobs the fused sweep can serve together with the pick:
  // same corpus pair, cold restart path, no per-job recording. Extraction
  // keeps queue order, so demuxed delivery order is deterministic too.
  const auto batchable = [this](const Job& job) {
    if (job.affinity_key.empty() || job.options.want_telemetry ||
        options_.sink != nullptr) {
      return false;
    }
    const auto* snmf = std::get_if<core::SnmfRequest>(&job.request.request);
    return snmf != nullptr && !snmf->reuse_session &&
           !snmf->db.path.empty() && !snmf->trapdoors.path.empty();
  };
  if (!batchable(*first)) return out;
  for (auto it = queue_.begin();
       it != queue_.end() && out.size() < options_.max_snmf_batch;) {
    if ((*it)->affinity_key == first->affinity_key && batchable(**it)) {
      out.push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

std::size_t Daemon::run_scheduled() {
  std::vector<std::shared_ptr<Job>> picked;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    picked = take_batch_locked();
  }
  const std::size_t n = picked.size();
  if (n == 0) return 0;
  if (n == 1) {
    run_job(std::move(*picked.front()));
    return 1;
  }
  run_snmf_batch(std::move(picked));
  return n;
}

void Daemon::run_job(Job&& job) {
  if (job.deadline != std::chrono::steady_clock::time_point{} &&
      std::chrono::steady_clock::now() > job.deadline) {
    expired_.fetch_add(1, std::memory_order_relaxed);
    job.deliver(job.id,
                refused(core::ErrorCode::Budget,
                        "deadline of " + std::to_string(job.options.deadline_ms) +
                            " ms expired before the job started"));
    return;
  }
  core::AttackResponse resp = execute(job.request, job.options);
  completed_.fetch_add(1, std::memory_order_relaxed);
  job.deliver(job.id, std::move(resp));
}

void Daemon::run_snmf_batch(std::vector<std::shared_ptr<Job>> jobs) {
  // Per-job deadline refusals first, exactly as run_job would have issued
  // them — riding in a batch never relaxes a deadline.
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<Job>> live;
  live.reserve(jobs.size());
  for (auto& job : jobs) {
    if (job->deadline != std::chrono::steady_clock::time_point{} &&
        now > job->deadline) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      job->deliver(job->id,
                   refused(core::ErrorCode::Budget,
                           "deadline of " +
                               std::to_string(job->options.deadline_ms) +
                               " ms expired before the job started"));
    } else {
      live.push_back(std::move(job));
    }
  }
  if (live.empty()) return;
  if (live.size() == 1) {
    run_job(std::move(*live.front()));
    return;
  }

  std::size_t delivered = 0;
  try {
    // One corpus resolve, one score-matrix build (or cache hit), one rank
    // estimate per distinct (seed, tol) — then a single fused restart
    // sweep. Each job's initializations come from its own options and
    // context, so the demuxed results are bit-identical to solo runs.
    const auto& proto = std::get<core::SnmfRequest>(live.front()->request.request);
    std::string db_fp, td_fp;
    const core::CorpusRef db =
        resolve_corpus(proto.db, CorpusKind::Ciphers, &db_fp);
    const core::CorpusRef td =
        resolve_corpus(proto.trapdoors, CorpusKind::Ciphers, &td_fp);
    if (db_fp.empty() || td_fp.empty()) {
      throw core::Error(core::ErrorCode::BadInput,
                        "snmf batch: corpus has no stable identity");
    }
    std::size_t sweep_threads = 1;
    for (const auto& job : live) {
      sweep_threads =
          std::max(sweep_threads, job_context(job->options).resolved_threads());
    }
    const std::string score_key = db_fp + "#" + td_fp;
    const auto scores = score_cache_.get_or_build(
        score_key, options_.memory_budget_bytes, [&] {
          return core::build_score_matrix(*db.ciphers, *td.ciphers,
                                          sweep_threads);
        });

    std::vector<core::SnmfBatchJob> batch(live.size());
    std::vector<std::size_t> estimated(live.size(), 0);
    for (std::size_t i = 0; i < live.size(); ++i) {
      const auto& req = std::get<core::SnmfRequest>(live[i]->request.request);
      core::ExecContext ctx = job_context(live[i]->options);
      ctx.memory_budget_bytes = options_.memory_budget_bytes;
      core::SnmfAttackOptions opts = req.options;
      if (opts.rank == 0) {
        // The same rank-estimate cache the solo path keeps: keyed on
        // corpus, seed AND tolerance (the estimation identity).
        const std::string rank_key = db_fp + "#" + td_fp +
                                     "#seed=" + std::to_string(ctx.seed) +
                                     "#tol=" + key_f64(opts.rank_tol);
        std::size_t rank = 0;
        {
          std::lock_guard<std::mutex> lk(cache_mu_);
          const auto it = rank_cache_.find(rank_key);
          if (it != rank_cache_.end()) rank = it->second;
        }
        if (rank > 0) {
          rank_hits_.fetch_add(1, std::memory_order_relaxed);
        } else {
          rank = core::estimate_latent_dimension(*scores, opts.rank_tol, ctx);
          if (rank == 0) {
            throw core::Error(core::ErrorCode::NotReady,
                              "snmf: rank estimation found a zero matrix");
          }
          cache_rank(rank_key, rank);
        }
        opts.rank = rank;
        estimated[i] = rank;
      }
      batch[i].options = opts;
      batch[i].ctx = ctx;
    }

    std::vector<core::SnmfAttackResult> results =
        core::run_snmf_attack_batch(*scores, batch);

    batches_formed_.fetch_add(1, std::memory_order_relaxed);
    batched_jobs_.fetch_add(live.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < live.size(); ++i) {
      core::AttackResponse resp;
      auto res = std::move(results[i]);
      if (estimated[i] > 0) {
        res.telemetry.counters["snmf.estimated_rank"] =
            static_cast<double>(estimated[i]);
      }
      resp.telemetry = res.telemetry;
      resp.result = std::move(res);
      resp.status = core::AttackStatus::Ok;
      resp.error = core::ErrorCode::Ok;
      // Batched jobs never carry want_telemetry; strip exactly as
      // execute_resolved does.
      resp.telemetry.spans.clear();
      resp.telemetry.gauges.clear();
      completed_.fetch_add(1, std::memory_order_relaxed);
      live[i]->deliver(live[i]->id, std::move(resp));
      ++delivered;
    }
  } catch (...) {
    // Anything the fused path cannot serve (unreadable corpus, rank
    // failure, ...) falls back to solo execution, which reports the real
    // per-job error through the normal taxonomy.
    for (std::size_t i = delivered; i < live.size(); ++i) {
      run_job(std::move(*live[i]));
    }
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
  s.corpus_cache_hits = corpus_hits_.load(std::memory_order_relaxed);
  s.rank_cache_hits = rank_hits_.load(std::memory_order_relaxed);
  s.lep_session_hits = lep_hits_.load(std::memory_order_relaxed);
  s.snmf_resumes = snmf_resumes_.load(std::memory_order_relaxed);
  s.batches_formed = batches_formed_.load(std::memory_order_relaxed);
  s.batched_jobs = batched_jobs_.load(std::memory_order_relaxed);
  s.affinity_hits = affinity_hits_.load(std::memory_order_relaxed);
  s.basis_cache_hits = basis_hits_.load(std::memory_order_relaxed);
  {
    const auto sc = score_cache_.stats();
    s.score_cache_hits = sc.hits;
    s.score_cache_misses = sc.misses;
    s.score_cache_evictions = sc.evictions;
    s.score_cache_bytes = sc.resident_bytes;
  }
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    s.queue_depth = queue_.size();
  }
  return s;
}

// ------------------------------------------------------------- warm caches

core::CorpusRef Daemon::resolve_corpus(const core::CorpusRef& ref,
                                       CorpusKind kind,
                                       std::string* fingerprint_out) {
  if (fingerprint_out != nullptr) fingerprint_out->clear();
  if (ref.ciphers != nullptr || ref.vecs != nullptr || ref.path.empty()) {
    return ref;  // inline (no stable identity) or empty (dispatch validates)
  }
  const auto fp = stat_fingerprint(ref.path);
  if (!fp) return ref;  // unreadable: let the loader raise the io error
  const bool ciphers = kind == CorpusKind::Ciphers;
  core::CorpusRef out;
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    const auto it = corpus_cache_.find(ref.path);
    if (it != corpus_cache_.end() && it->second.fingerprint == *fp) {
      if (ciphers) {
        out.ciphers = it->second.ciphers;
      } else {
        out.vecs = it->second.vecs;
      }
    }
  }
  if (out.ciphers != nullptr || out.vecs != nullptr) {
    corpus_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (ciphers) {
      out.ciphers = ref.load_ciphers("corpus");
    } else {
      out.vecs = ref.load_vecs("corpus");
    }
    std::lock_guard<std::mutex> lk(cache_mu_);
    if (corpus_cache_.size() >= options_.max_cache_entries &&
        corpus_cache_.count(ref.path) == 0) {
      corpus_cache_.clear();
    }
    auto& entry = corpus_cache_[ref.path];
    if (entry.fingerprint != *fp) entry = CorpusEntry{};  // file changed
    entry.fingerprint = *fp;
    if (ciphers) {
      entry.ciphers = out.ciphers;
    } else {
      entry.vecs = out.vecs;
    }
  }
  if (fingerprint_out != nullptr) *fingerprint_out = *fp;
  return out;
}

void Daemon::cache_rank(const std::string& key, std::size_t rank) {
  std::lock_guard<std::mutex> lk(cache_mu_);
  if (rank_cache_.size() >= options_.max_cache_entries &&
      rank_cache_.count(key) == 0) {
    rank_cache_.clear();
  }
  rank_cache_[key] = rank;
}

// --------------------------------------------------------------- execution

core::AttackResponse Daemon::execute(const core::AttackRequest& request,
                                     const JobOptions& options) {
  try {
    return execute_resolved(request, options);
  } catch (const std::exception& e) {
    return refused(core::error_code_of(e), e.what());
  }
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
          core::LepRequest r = typed;
          std::string kp_fp, db_fp, td_fp;
          r.known_plain =
              resolve_corpus(typed.known_plain, CorpusKind::Vecs, &kp_fp);
          r.db = resolve_corpus(typed.db, CorpusKind::Ciphers, &db_fp);
          r.trapdoors =
              resolve_corpus(typed.trapdoors, CorpusKind::Ciphers, &td_fp);
          if (!kp_fp.empty() && !db_fp.empty() && !td_fp.empty()) {
            std::ostringstream key;
            key << kp_fp << '#' << db_fp << '#' << td_fp
                << "#tol=" << r.options.independence_tol;
            return execute_lep_warm(r, key.str(), ctx);
          }
          core::AttackRequest resolved;
          resolved.request = std::move(r);
          return core::dispatch_attack(resolved, ctx);
        } else if constexpr (std::is_same_v<T, core::MipRequest>) {
          core::MipRequest r = typed;
          std::string kp_fp, db_fp, td_fp;
          r.known_plain =
              resolve_corpus(typed.known_plain, CorpusKind::Vecs, &kp_fp);
          r.db = resolve_corpus(typed.db, CorpusKind::Ciphers, &db_fp);
          r.trapdoors =
              resolve_corpus(typed.trapdoors, CorpusKind::Ciphers, &td_fp);
          const bool identified =
              !kp_fp.empty() && !db_fp.empty() && !td_fp.empty();
          core::AttackRequest resolved;
          resolved.request = std::move(r);
          if (!identified) return core::dispatch_attack(resolved, ctx);
          // Persistent MIP basis cache: repeated jobs over the same corpora
          // and parameters warm-start the root LP from the cached basis.
          // run_mip_attack self-invalidates on model-digest mismatch,
          // so the parameter key only scopes contention; correctness never
          // depends on it. The entry mutex serializes the whole attack per
          // key — two identical jobs never race on the shared basis.
          std::ostringstream key;
          key << kp_fp << '#' << db_fp << '#' << td_fp
              << "#tid=" << typed.trapdoor_id << "#mu=" << key_f64(typed.mu)
              << "#sigma=" << key_f64(typed.sigma)
              << "#l=" << key_f64(typed.options.l)
              << "#tl=" << key_f64(typed.options.solver.time_limit_seconds)
              << "#nodes=" << typed.options.solver.max_nodes;
          std::shared_ptr<MipBasisEntry> entry;
          {
            std::lock_guard<std::mutex> lk(cache_mu_);
            if (mip_basis_.size() >= options_.max_cache_entries &&
                mip_basis_.count(key.str()) == 0) {
              mip_basis_.clear();
            }
            auto& slot = mip_basis_[key.str()];
            if (slot == nullptr) slot = std::make_shared<MipBasisEntry>();
            entry = slot;
          }
          std::lock_guard<std::mutex> lk(entry->mu);
          const bool warm = entry->state.has_root_basis;
          if (warm) basis_hits_.fetch_add(1, std::memory_order_relaxed);
          core::DispatchHooks hooks;
          hooks.mip_warm = &entry->state;
          return core::dispatch_attack(resolved, ctx, hooks);
        } else {
          core::SnmfRequest r = typed;
          std::string db_fp, td_fp;
          r.db = resolve_corpus(typed.db, CorpusKind::Ciphers, &db_fp);
          r.trapdoors =
              resolve_corpus(typed.trapdoors, CorpusKind::Ciphers, &td_fp);
          const bool identified = !db_fp.empty() && !td_fp.empty();
          if (r.reuse_session && identified) {
            std::ostringstream key;
            key << db_fp << '#' << td_fp << "#rank=" << r.options.rank
                << "#restarts=" << r.options.restarts
                << "#iters=" << r.options.nmf.max_iterations
                << "#theta=" << r.options.theta
                << "#tol=" << key_f64(r.options.rank_tol)
                << "#seed=" << ctx.seed;
            return execute_snmf_warm(r, key.str(), ctx);
          }
          // Shared score-matrix cache: every stage of this job (and every
          // later job over the same corpora) reads one resident R. A cache
          // hit is bit-identical to a rebuild, so this never changes output.
          core::DispatchHooks hooks;
          if (identified) {
            hooks.score_cache = &score_cache_;
            hooks.score_key = db_fp + "#" + td_fp;
          }
          // Rank-estimate cache: the estimate is deterministic per
          // (corpus, seed, tolerance), so replaying a cached rank
          // reproduces the cold run bit for bit while skipping the SVD.
          // The tolerance is part of the key — two jobs differing only in
          // rank_tol may legitimately disagree on the estimate.
          std::string rank_key;
          std::size_t cached_rank = 0;
          if (r.options.rank == 0 && identified) {
            rank_key = db_fp + "#" + td_fp +
                       "#seed=" + std::to_string(ctx.seed) +
                       "#tol=" + key_f64(r.options.rank_tol);
            std::lock_guard<std::mutex> lk(cache_mu_);
            const auto it = rank_cache_.find(rank_key);
            if (it != rank_cache_.end()) cached_rank = it->second;
          }
          if (cached_rank > 0) {
            rank_hits_.fetch_add(1, std::memory_order_relaxed);
            r.options.rank = cached_rank;
            core::AttackRequest resolved;
            resolved.request = std::move(r);
            core::AttackResponse out =
                core::dispatch_attack(resolved, ctx, hooks);
            if (out.ok()) {
              const auto rank = static_cast<double>(cached_rank);
              out.telemetry.counters["snmf.estimated_rank"] = rank;
              if (auto* res =
                      std::get_if<core::SnmfAttackResult>(&out.result)) {
                res->telemetry.counters["snmf.estimated_rank"] = rank;
              }
            }
            return out;
          }
          core::AttackRequest resolved;
          resolved.request = std::move(r);
          core::AttackResponse out =
              core::dispatch_attack(resolved, ctx, hooks);
          if (!rank_key.empty() && out.ok()) {
            const auto rank = static_cast<std::size_t>(
                out.telemetry.counter("snmf.estimated_rank"));
            if (rank > 0) cache_rank(rank_key, rank);
          }
          return out;
        }
      },
      request.request);

  if (!options.want_telemetry) {
    resp.telemetry.spans.clear();
    resp.telemetry.gauges.clear();
  }
  return resp;
}

core::AttackResponse Daemon::execute_lep_warm(const core::LepRequest& req,
                                              const std::string& key,
                                              const core::ExecContext& ctx) {
  std::shared_ptr<LepEntry> entry;
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    if (lep_sessions_.size() >= options_.max_cache_entries &&
        lep_sessions_.count(key) == 0) {
      lep_sessions_.clear();
    }
    auto& slot = lep_sessions_[key];
    if (slot == nullptr) slot = std::make_shared<LepEntry>();
    entry = slot;
  }

  // The recording wraps session build *and* assemble; the session itself
  // runs with a null sink (its spans land in this recording).
  obs::ScopedRecording rec(ctx.sink);
  std::lock_guard<std::mutex> lk(entry->mu);
  if (entry->session.has_value()) {
    lep_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    const auto known = req.known_plain.load_vecs("lep known-plain");
    const auto db = req.db.load_ciphers("lep db");
    const auto trapdoors = req.trapdoors.load_ciphers("lep trapdoors");
    if (known->size() > db->size()) {
      throw core::Error(core::ErrorCode::BadInput,
                        "lep: more known records than ciphertexts");
    }
    core::ExecContext session_ctx = ctx;
    session_ctx.sink = nullptr;
    try {
      entry->session.emplace(req.options, session_ctx);
      std::vector<sse::KnownIndexPair> pairs;
      pairs.reserve(known->size());
      for (std::size_t i = 0; i < known->size(); ++i) {
        pairs.push_back({scheme::make_index((*known)[i]), (*db)[i]});
      }
      entry->session->add_known_pairs(pairs);
      sse::CoaView view;
      view.cipher_indexes = *db;
      view.cipher_trapdoors = *trapdoors;
      entry->session->append_ciphertexts(view);
    } catch (...) {
      entry->session.reset();  // never cache a half-built session
      throw;
    }
  }

  core::AttackResponse resp;
  // result() is bit-identical to run_lep_attack on the same view (the
  // session contract), so warm hits return exactly the cold answer.
  auto res = entry->session->result();
  res.telemetry.absorb(rec.finish());
  resp.telemetry = res.telemetry;
  resp.result = std::move(res);
  resp.status = core::AttackStatus::Ok;
  resp.error = core::ErrorCode::Ok;
  return resp;
}

core::AttackResponse Daemon::execute_snmf_warm(const core::SnmfRequest& req,
                                               const std::string& key,
                                               const core::ExecContext& ctx) {
  std::shared_ptr<CoaEntry> entry;
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    if (coa_sessions_.size() >= options_.max_cache_entries &&
        coa_sessions_.count(key) == 0) {
      coa_sessions_.clear();
    }
    auto& slot = coa_sessions_[key];
    if (slot == nullptr) slot = std::make_shared<CoaEntry>();
    entry = slot;
  }

  obs::ScopedRecording rec(ctx.sink);
  std::lock_guard<std::mutex> lk(entry->mu);
  const bool fresh = !entry->session.has_value();
  if (fresh) {
    const auto db = req.db.load_ciphers("snmf db");
    const auto trapdoors = req.trapdoors.load_ciphers("snmf trapdoors");
    core::ExecContext session_ctx = ctx;
    session_ctx.sink = nullptr;
    try {
      entry->session.emplace(req.options, session_ctx);
      sse::CoaView view;
      view.cipher_indexes = *db;
      view.cipher_trapdoors = *trapdoors;
      entry->session->append_ciphertexts(view);
      std::size_t rank = req.options.rank;
      if (rank == 0) {
        rank = entry->session->estimate_rank(req.options.rank_tol);
        if (rank == 0) {
          throw core::Error(core::ErrorCode::NotReady,
                            "snmf: rank estimation found a zero matrix");
        }
      }
      entry->session->set_rank(rank);
      entry->rank = rank;
    } catch (...) {
      entry->session.reset();
      throw;
    }
  } else {
    snmf_resumes_.fetch_add(1, std::memory_order_relaxed);
  }

  core::AttackResponse resp;
  // First attack of a fresh session == run_snmf_attack bit for bit; later
  // calls warm-resume (same fixed point, not bitwise — which is why this
  // path requires the reuse_session opt-in).
  auto res = entry->session->attack();
  if (req.options.rank == 0) {
    res.telemetry.counters["snmf.estimated_rank"] =
        static_cast<double>(entry->rank);
  }
  res.telemetry.absorb(rec.finish());
  resp.telemetry = res.telemetry;
  resp.result = std::move(res);
  resp.status = core::AttackStatus::Ok;
  resp.error = core::ErrorCode::Ok;
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
          // Accepted must precede Result on the wire even when the daemon
          // delivers synchronously (queue-full refusal) or a worker
          // finishes before submit() returns — both deliver paths and the
          // handler race through this once-guard with the same id.
          auto accept_once = std::make_shared<std::once_flag>();
          auto send_accepted = [conn, accept_once](std::uint64_t id) {
            std::call_once(*accept_once, [&] {
              WireWriter w;
              w.u64(id);
              conn->send(FrameType::Accepted, w.bytes());
            });
          };
          const auto id = daemon_.submit(
              std::move(req), jopts,
              [conn, send_accepted](std::uint64_t job_id,
                                    core::AttackResponse&& resp) {
                send_accepted(job_id);
                conn->send(FrameType::Result,
                           build_result_payload(job_id, resp));
              });
          send_accepted(id);
          break;
        }
        case FrameType::SubmitBatch: {
          WireReader r(frame->payload);
          // Minimum bytes per job: the fixed-size JobOptions block (26)
          // plus a one-byte request tag.
          const std::size_t n = r.count(27, "svc submit-batch job count");
          std::vector<BatchJob> jobs(n);
          for (auto& job : jobs) {
            job.options = decode_job_options(r);
            job.request = decode_request(r);
          }
          r.expect_end("svc submit-batch frame");
          // Per job, its Accepted frame precedes its Result frame — the
          // Submit once-guard generalized to a set of ids, since a worker
          // (or a synchronous refusal) can deliver before submit_batch
          // returns the id list to this thread.
          struct AcceptGuard {
            std::mutex mu;
            std::set<std::uint64_t> sent;
            bool first(std::uint64_t id) {
              std::lock_guard<std::mutex> lk(mu);
              return sent.insert(id).second;
            }
          };
          auto guard = std::make_shared<AcceptGuard>();
          const auto send_accepted = [conn, guard](std::uint64_t id) {
            if (guard->first(id)) {
              WireWriter w;
              w.u64(id);
              conn->send(FrameType::Accepted, w.bytes());
            }
          };
          const auto ids = daemon_.submit_batch(
              std::move(jobs),
              [conn, send_accepted](std::uint64_t job_id,
                                    core::AttackResponse&& resp) {
                send_accepted(job_id);
                conn->send(FrameType::Result,
                           build_result_payload(job_id, resp));
              });
          for (const auto id : ids) send_accepted(id);
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
