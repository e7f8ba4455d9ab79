#include "core/attack_api.hpp"

#include <utility>

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

AttackResponse dispatch_lep(const LepRequest& req, const ExecContext& ctx) {
  const auto known = req.known_plain.load_vecs("lep known-plain");
  const auto db = req.db.load_ciphers("lep db");
  const auto trapdoors = req.trapdoors.load_ciphers("lep trapdoors");
  if (known->size() > db->size()) {
    throw Error(ErrorCode::BadInput,
                "lep: more known records than ciphertexts");
  }

  sse::KpaView view;
  view.known_pairs.reserve(known->size());
  for (std::size_t i = 0; i < known->size(); ++i) {
    view.known_pairs.push_back(
        {scheme::make_index((*known)[i]), (*db)[i]});
  }
  view.observed.cipher_indexes = *db;
  view.observed.cipher_trapdoors = *trapdoors;

  AttackResponse resp;
  auto res = run_lep_attack(view, req.options, ctx);
  resp.telemetry = res.telemetry;
  resp.result = std::move(res);
  resp.status = AttackStatus::Ok;
  resp.error = ErrorCode::Ok;
  return resp;
}

AttackResponse dispatch_mip(const MipRequest& req, const ExecContext& ctx,
                            const DispatchHooks& hooks) {
  const auto known = req.known_plain.load_vecs("mip known-plain");
  const auto db = req.db.load_ciphers("mip db");
  const auto trapdoors = req.trapdoors.load_ciphers("mip trapdoors");
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

  AttackResponse resp;
  auto res = run_mip_attack(pairs, (*trapdoors)[req.trapdoor_id], req.mu,
                            req.sigma, req.options, ctx, hooks.mip_warm);
  resp.status = res.found ? AttackStatus::Ok : AttackStatus::NoSolution;
  resp.error = ErrorCode::Ok;
  resp.telemetry = res.telemetry;
  resp.result = std::move(res);
  return resp;
}

AttackResponse dispatch_snmf(const SnmfRequest& req, const ExecContext& ctx,
                             const DispatchHooks& hooks) {
  const auto db = req.db.load_ciphers("snmf db");
  const auto trapdoors = req.trapdoors.load_ciphers("snmf trapdoors");

  // Build (or fetch) the score matrix exactly once per request: the rank
  // estimate and the restart sweep read the same R. Pre-hooks dispatch
  // built it twice on the rank == 0 path — once for the estimate, once
  // inside run_snmf_attack(view, ...). The build is deterministic at any
  // thread count, so a store hit is bit-identical to a rebuild.
  const bool warm = hooks.store != nullptr && !hooks.score_key.empty();
  const auto build = [&] {
    return build_score_matrix(*db, *trapdoors, ctx.threads);
  };
  std::shared_ptr<const linalg::Matrix> scores;
  if (warm) {
    scores = hooks.store->get_or_build<const linalg::Matrix>(
        WarmKind::Score, hooks.score_key, [&] {
          auto m = std::make_shared<const linalg::Matrix>(build());
          return WarmStore::Built<const linalg::Matrix>{
              m, m->rows() * m->cols() * sizeof(double)};
        });
  } else {
    scores = std::make_shared<const linalg::Matrix>(build());
  }

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
        warm ? *hooks.store->get_or_build<const std::size_t>(
                   WarmKind::Rank,
                   warm_key(hooks.score_key, ctx.seed, options.rank_tol),
                   [&] {
                     return WarmStore::Built<const std::size_t>{
                         std::make_shared<const std::size_t>(estimate()),
                         sizeof(std::size_t)};
                   })
             : estimate();
  }

  AttackResponse resp;
  auto res = run_snmf_attack(*scores, options, ctx);
  if (estimated) {
    // Recorded whether or not a sink was attached, like the driver's own
    // counters, so callers (the CLI's report line) can read the choice
    // back.
    res.telemetry.counters["snmf.estimated_rank"] =
        static_cast<double>(options.rank);
  }
  resp.telemetry = res.telemetry;
  resp.result = std::move(res);
  resp.status = AttackStatus::Ok;
  resp.error = ErrorCode::Ok;
  return resp;
}

}  // namespace

AttackResponse dispatch_attack(const AttackRequest& request,
                               const ExecContext& ctx) {
  return dispatch_attack(request, ctx, DispatchHooks{});
}

AttackResponse dispatch_attack(const AttackRequest& request,
                               const ExecContext& ctx,
                               const DispatchHooks& hooks) {
  try {
    return std::visit(
        [&](const auto& req) -> AttackResponse {
          using T = std::decay_t<decltype(req)>;
          if constexpr (std::is_same_v<T, LepRequest>) {
            return dispatch_lep(req, ctx);
          } else if constexpr (std::is_same_v<T, MipRequest>) {
            return dispatch_mip(req, ctx, hooks);
          } else {
            return dispatch_snmf(req, ctx, hooks);
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
