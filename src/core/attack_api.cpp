#include "core/attack_api.hpp"

#include <sys/stat.h>

#include <mutex>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "core/session.hpp"
#include "io/codec.hpp"
#include "io/format.hpp"
#include "scheme/plain_index.hpp"
#include "sse/adversary_view.hpp"

namespace aspe::core {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::Ok: return "ok";
    case ErrorCode::BadInput: return "bad-input";
    case ErrorCode::NotReady: return "not-ready";
    case ErrorCode::Budget: return "budget";
    case ErrorCode::Internal: return "internal";
  }
  return "internal";
}

ErrorCode error_code_of(const std::exception& e) {
  if (const auto* typed = dynamic_cast<const Error*>(&e)) return typed->code;
  if (dynamic_cast<const InvalidArgument*>(&e) != nullptr ||
      dynamic_cast<const io::IoError*>(&e) != nullptr) {
    return ErrorCode::BadInput;
  }
  if (dynamic_cast<const NumericalError*>(&e) != nullptr) {
    return ErrorCode::NotReady;
  }
  return ErrorCode::Internal;
}

int exit_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::Ok: return 0;
    case ErrorCode::BadInput: return 2;
    case ErrorCode::NotReady: return 4;
    case ErrorCode::Budget: return 5;
    case ErrorCode::Internal: return 1;
  }
  return 1;
}

// ----------------------------------------------------------------- corpora

CorpusRef CorpusRef::from_path(std::string p) {
  CorpusRef ref;
  ref.path = std::move(p);
  return ref;
}

CorpusRef CorpusRef::inline_ciphers(std::vector<scheme::CipherPair> db) {
  CorpusRef ref;
  ref.ciphers = std::make_shared<const std::vector<scheme::CipherPair>>(
      std::move(db));
  return ref;
}

CorpusRef CorpusRef::inline_vecs(std::vector<Vec> v) {
  CorpusRef ref;
  ref.vecs = std::make_shared<const std::vector<Vec>>(std::move(v));
  return ref;
}

std::shared_ptr<const std::vector<scheme::CipherPair>> CorpusRef::load_ciphers(
    const char* what) const {
  if (ciphers != nullptr) return ciphers;
  if (vecs != nullptr) {
    throw Error(ErrorCode::BadInput,
                std::string(what) + ": expected a ciphertext corpus, got an "
                                    "inline vector payload");
  }
  if (path.empty()) {
    throw Error(ErrorCode::BadInput,
                std::string(what) + ": corpus reference is empty");
  }
  return std::make_shared<const std::vector<scheme::CipherPair>>(
      io::open_reader(path)->read_cipher_database());
}

std::shared_ptr<const std::vector<Vec>> CorpusRef::load_vecs(
    const char* what) const {
  if (vecs != nullptr) return vecs;
  if (ciphers != nullptr) {
    throw Error(ErrorCode::BadInput,
                std::string(what) + ": expected a vector corpus, got an "
                                    "inline ciphertext payload");
  }
  if (path.empty()) {
    throw Error(ErrorCode::BadInput,
                std::string(what) + ": corpus reference is empty");
  }
  return std::make_shared<const std::vector<Vec>>(
      io::open_reader(path)->read_vecs());
}

// ---------------------------------------------------------------- dispatch

namespace {

template <class T>
using Built = WarmStore::Built<T>;

// Warm state is an accelerator, never an input: with a store, every
// dispatch returns bit-identical results to one without. Each key below
// covers the corpora (by fingerprint) and every option the state's builder
// reads. Thread counts and the memory budget shape how an attack runs,
// never what it computes, so no key carries them.

/// Corpus identity for the warm state: path plus size plus mtime. Empty
/// when the file cannot be stat'ed (the load then reports the real error
/// with the io layer's message).
std::string stat_fingerprint(const std::string& path) {
  struct ::stat st {};
  if (::stat(path.c_str(), &st) != 0) return {};
  std::ostringstream os;
  os << path << '|' << st.st_size << '|' << st.st_mtim.tv_sec << '.'
     << st.st_mtim.tv_nsec;
  return os.str();
}

std::size_t doubles_in(const scheme::CipherPair& c) {
  return c.a.size() + c.b.size();
}
std::size_t doubles_in(const Vec& v) { return v.size(); }

/// Loads one job's corpora — through the store's corpus kind when a store
/// is attached — and collects the identity its warm state is keyed on.
class CorpusLoader {
 public:
  explicit CorpusLoader(WarmStore* store) : store_(store) {}

  std::shared_ptr<const std::vector<Vec>> vecs(const CorpusRef& ref,
                                               const char* what) {
    return load<Vec>(ref, [&] { return ref.load_vecs(what); });
  }
  std::shared_ptr<const std::vector<scheme::CipherPair>> ciphers(
      const CorpusRef& ref, const char* what) {
    return load<scheme::CipherPair>(ref,
                                    [&] { return ref.load_ciphers(what); });
  }

  /// The store, when every corpus loaded so far has a stable identity; null
  /// without a store or once one corpus was inline or unreadable.
  [[nodiscard]] WarmStore* warm() const { return keyed_ ? store_ : nullptr; }
  /// The loaded corpora's fingerprints, joined (meaningful when warm()).
  [[nodiscard]] const std::string& identity() const { return identity_; }

 private:
  template <class T, class Read>
  std::shared_ptr<const std::vector<T>> load(const CorpusRef& ref,
                                             Read&& read) {
    const bool path_only =
        ref.ciphers == nullptr && ref.vecs == nullptr && !ref.path.empty();
    const std::string fp =
        store_ != nullptr && path_only ? stat_fingerprint(ref.path) : "";
    if (fp.empty()) {
      keyed_ = false;
      return read();
    }
    identity_ += warm_key(fp);
    // The same file read as ciphers and as vectors is two entries.
    using Corpus = const std::vector<T>;
    constexpr int kind = std::is_same_v<T, Vec> ? 1 : 0;
    return store_->get_or_build<Corpus>(
        WarmKind::Corpus, warm_key(fp, kind), [&] {
          std::shared_ptr<Corpus> loaded = read();
          std::size_t doubles = 0;
          for (const T& x : *loaded) doubles += doubles_in(x);
          return Built<Corpus>{loaded, doubles * sizeof(double)};
        });
  }

  WarmStore* store_;
  bool keyed_ = true;
  std::string identity_;
};

template <class Result>
AttackResponse answered(Result&& res, AttackStatus status) {
  AttackResponse resp;
  resp.status = status;
  resp.error = ErrorCode::Ok;
  resp.telemetry = res.telemetry;
  resp.result = std::forward<Result>(res);
  return resp;
}

std::vector<sse::KnownIndexPair> known_index_pairs(
    const std::vector<Vec>& known,
    const std::vector<scheme::CipherPair>& db) {
  std::vector<sse::KnownIndexPair> pairs;
  pairs.reserve(known.size());
  for (std::size_t i = 0; i < known.size(); ++i) {
    pairs.push_back({scheme::make_index(known[i]), db[i]});
  }
  return pairs;
}

AttackResponse dispatch_lep(const LepRequest& req, const ExecContext& ctx,
                            WarmStore* store) {
  CorpusLoader load(store);
  const auto known = load.vecs(req.known_plain, "lep known-plain");
  const auto db = load.ciphers(req.db, "lep db");
  const auto trapdoors = load.ciphers(req.trapdoors, "lep trapdoors");
  if (known->size() > db->size()) {
    throw Error(ErrorCode::BadInput,
                "lep: more known records than ciphertexts");
  }

  WarmStore* warm = load.warm();
  if (warm == nullptr) {
    sse::KpaView view;
    view.known_pairs = known_index_pairs(*known, *db);
    view.observed.cipher_indexes = *db;
    view.observed.cipher_trapdoors = *trapdoors;
    return answered(run_lep_attack(view, req.options, ctx), AttackStatus::Ok);
  }

  // A LepSession draws no randomness; only its independence tolerance
  // decides which pairs and trapdoors form the bases. The recording wraps
  // session build *and* assemble; the session itself runs with a null sink
  // (its spans land in this recording).
  obs::ScopedRecording rec(ctx.sink);
  const auto session = warm->get_or_build<const LepSession>(
      WarmKind::Lep,
      warm_key(load.identity(), req.options.independence_tol), [&] {
        ExecContext session_ctx = ctx;
        session_ctx.sink = nullptr;
        auto built = std::make_shared<LepSession>(req.options, session_ctx);
        built->add_known_pairs(known_index_pairs(*known, *db));
        sse::CoaView view;
        view.cipher_indexes = *db;
        view.cipher_trapdoors = *trapdoors;
        built->append_ciphertexts(view);
        return Built<const LepSession>{built, built->resident_bytes()};
      });
  // result() is bit-identical to run_lep_attack on the same view (the
  // session contract), so a hit returns exactly the cold answer.
  auto res = session->result();
  res.telemetry.absorb(rec.finish());
  return answered(std::move(res), AttackStatus::Ok);
}

/// One persistent MIP root basis. `mu` is held across the whole attack, so
/// two identical MIP jobs never race on the basis.
struct MipBasisEntry {
  std::mutex mu;
  MipWarmState state;
};

std::size_t basis_bytes(const opt::BasisState& b) {
  return b.basis.size() * sizeof(std::size_t) +
         b.status.size() * sizeof(opt::VarStatus) +
         b.art_sign.size() * sizeof(double);
}

AttackResponse dispatch_mip(const MipRequest& req, const ExecContext& ctx,
                            WarmStore* store) {
  CorpusLoader load(store);
  const auto known = load.vecs(req.known_plain, "mip known-plain");
  const auto db = load.ciphers(req.db, "mip db");
  const auto trapdoors = load.ciphers(req.trapdoors, "mip trapdoors");
  if (known->size() > db->size()) {
    throw Error(ErrorCode::BadInput,
                "mip: more known records than ciphertexts");
  }
  if (trapdoors->empty()) {
    throw Error(ErrorCode::BadInput, "mip: no trapdoors");
  }
  if (req.trapdoor_id >= trapdoors->size()) {
    throw Error(ErrorCode::BadInput, "mip: trapdoor id out of range");
  }

  std::vector<sse::KnownBinaryPair> pairs;
  pairs.reserve(known->size());
  for (std::size_t i = 0; i < known->size(); ++i) {
    const Vec& rec = (*known)[i];
    BitVec bits(rec.size());
    for (std::size_t k = 0; k < rec.size(); ++k) {
      bits[k] = rec[k] > 0.5 ? 1 : 0;
    }
    pairs.push_back({std::move(bits), (*db)[i]});
  }
  const auto attack = [&](MipWarmState* state) {
    auto res = run_mip_attack(pairs, (*trapdoors)[req.trapdoor_id], req.mu,
                              req.sigma, req.options, ctx, state);
    const auto status = res.found ? AttackStatus::Ok : AttackStatus::NoSolution;
    return answered(std::move(res), status);
  };

  WarmStore* warm = load.warm();
  if (warm == nullptr) return attack(nullptr);

  // A root basis comes from the model (trapdoor, noise model, attack
  // options) and the solver options. run_mip_attack also checks a model
  // digest before warm-starting, so a key collision costs a cold solve, not
  // a wrong answer. The entry is built empty and filled by the first
  // attack, so its bytes are re-recorded after each run.
  const MipAttackOptions& o = req.options;
  const opt::MipOptions& s = o.solver;
  const std::string key = warm_key(
      load.identity(), req.trapdoor_id, req.mu, req.sigma, o.l,
      static_cast<int>(o.root_ordering), o.use_heuristic, s.first_feasible,
      s.use_presolve, s.warm_start, s.max_nodes, s.time_limit_seconds,
      s.lp.bland_threshold);
  const auto entry = warm->get_or_build<MipBasisEntry>(
      WarmKind::MipBasis, key, [] {
        return Built<MipBasisEntry>{std::make_shared<MipBasisEntry>(), 0};
      });
  std::lock_guard<std::mutex> lock(entry->mu);
  // Re-recorded on a throw too: the attack may have grown the basis first.
  const auto record = [&] {
    warm->resize(WarmKind::MipBasis, key, basis_bytes(entry->state.root_basis));
  };
  try {
    AttackResponse resp = attack(&entry->state);
    record();
    return resp;
  } catch (...) {
    record();
    throw;
  }
}

/// A CoaSession kept for warm resumes. attack() mutates it, so one job at
/// a time holds `mu`.
struct CoaEntry {
  CoaEntry(const SnmfAttackOptions& options, const ExecContext& ctx)
      : session(options, ctx) {}
  std::mutex mu;
  CoaSession session;
};

AttackResponse dispatch_snmf(const SnmfRequest& req, const ExecContext& ctx,
                             WarmStore* store) {
  // One recording and one "snmf/attack" root cover the whole job — corpus
  // load, score build and rank estimate as well as the attack — so the
  // job's telemetry splits it by layer. The attack's own recording is then
  // passive, and telemetry.wall_seconds stays the attack's own time.
  obs::ScopedRecording rec(ctx.sink);
  std::optional<obs::Span> root;
  if (rec.active()) root.emplace("snmf/attack");
  CorpusLoader load(store);
  const auto db = load.ciphers(req.db, "snmf db");
  const auto trapdoors = load.ciphers(req.trapdoors, "snmf trapdoors");
  WarmStore* warm = load.warm();

  if (warm != nullptr && req.reuse_session) {
    // A CoaSession reads every SNMF option (rank estimate, restarts, NMF
    // solve, binarization, warm resumes) and draws its restarts from the
    // seed.
    const SnmfAttackOptions& o = req.options;
    const nmf::SparseNmfOptions& n = o.nmf;
    const std::string key = warm_key(
        load.identity(), o.rank, o.theta, o.restarts, o.rank_tol,
        o.resume_iterations, n.eta, n.lambda, n.max_iterations, n.rel_tol,
        static_cast<int>(n.init), n.warm_start, ctx.seed);
    const auto entry =
        warm->get_or_build<CoaEntry>(WarmKind::Coa, key, [&] {
          ExecContext session_ctx = ctx;
          session_ctx.sink = nullptr;
          auto built = std::make_shared<CoaEntry>(o, session_ctx);
          sse::CoaView view;
          view.cipher_indexes = *db;
          view.cipher_trapdoors = *trapdoors;
          built->session.append_ciphertexts(view);
          std::size_t rank = o.rank;
          if (rank == 0) {
            rank = built->session.estimate_rank(o.rank_tol);
            if (rank == 0) {
              throw Error(ErrorCode::NotReady,
                          "snmf: rank estimation found a zero matrix");
            }
          }
          built->session.set_rank(rank);
          return Built<CoaEntry>{built, built->session.resident_bytes()};
        });

    std::lock_guard<std::mutex> lock(entry->mu);
    // First attack of a fresh session == run_snmf_attack bit for bit; later
    // calls warm-resume (same fixed point, not bitwise — which is why this
    // path requires the reuse_session opt-in).
    auto res = entry->session.attack();
    warm->resize(WarmKind::Coa, key, entry->session.resident_bytes());
    if (o.rank == 0) {
      res.telemetry.counters["snmf.estimated_rank"] =
          static_cast<double>(entry->session.options().rank);
    }
    root.reset();
    res.telemetry.absorb(rec.finish());
    return answered(std::move(res), AttackStatus::Ok);
  }

  // Build (or fetch) the score matrix exactly once per request: the rank
  // estimate and the restart sweep read the same R. The build is
  // deterministic at any thread count, so a store hit is bit-identical to a
  // rebuild.
  const auto build = [&] {
    obs::Span span("snmf/score_matrix");
    return std::make_shared<const linalg::Matrix>(
        build_score_matrix(*db, *trapdoors, ctx.threads));
  };
  const std::shared_ptr<const linalg::Matrix> scores =
      warm == nullptr
          ? build()
          : warm->get_or_build<const linalg::Matrix>(
                WarmKind::Score, load.identity(), [&] {
                  auto m = build();
                  return Built<const linalg::Matrix>{
                      m, m->rows() * m->cols() * sizeof(double)};
                });

  SnmfAttackOptions options = req.options;
  const bool estimated = options.rank == 0;
  if (estimated) {
    // The estimate is deterministic per (corpus, seed, tolerance), so a
    // stored rank reproduces the cold run bit for bit while skipping the
    // SVD. rank_tol is part of the key: two jobs differing only in it may
    // legitimately disagree on the estimate.
    const auto estimate = [&] {
      const std::size_t rank =
          estimate_latent_dimension(*scores, options.rank_tol, ctx);
      if (rank == 0) {
        throw Error(ErrorCode::NotReady,
                    "snmf: rank estimation found a zero matrix");
      }
      return rank;
    };
    options.rank =
        warm == nullptr
            ? estimate()
            : *warm->get_or_build<const std::size_t>(
                  WarmKind::Rank,
                  warm_key(load.identity(), ctx.seed, options.rank_tol), [&] {
                    return Built<const std::size_t>{
                        std::make_shared<const std::size_t>(estimate()),
                        sizeof(std::size_t)};
                  });
  }

  auto res = run_snmf_attack(*scores, options, ctx);
  if (estimated) {
    // Recorded whether or not a sink was attached, like the driver's own
    // counters, so callers (the CLI's report line) can read the choice
    // back.
    res.telemetry.counters["snmf.estimated_rank"] =
        static_cast<double>(options.rank);
  }
  root.reset();
  res.telemetry.absorb(rec.finish());
  return answered(std::move(res), AttackStatus::Ok);
}

}  // namespace

AttackResponse dispatch_attack(const AttackRequest& request,
                               const ExecContext& ctx, WarmStore* store) {
  try {
    return std::visit(
        [&](const auto& req) -> AttackResponse {
          using T = std::decay_t<decltype(req)>;
          if constexpr (std::is_same_v<T, LepRequest>) {
            return dispatch_lep(req, ctx, store);
          } else if constexpr (std::is_same_v<T, MipRequest>) {
            return dispatch_mip(req, ctx, store);
          } else {
            return dispatch_snmf(req, ctx, store);
          }
        },
        request.request);
  } catch (const std::exception& e) {
    AttackResponse resp;
    resp.status = AttackStatus::Failed;
    resp.error = error_code_of(e);
    resp.message = e.what();
    return resp;
  }
}

}  // namespace aspe::core
