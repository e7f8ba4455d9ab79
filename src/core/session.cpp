#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "linalg/kernels.hpp"
#include "par/parallel.hpp"
#include "scheme/plain_index.hpp"

namespace aspe::core {

using linalg::Matrix;
using scheme::cipher_score;

namespace {

/// Append one ciphertext half per row onto a stacked-half matrix.
void append_half(Matrix& dest, const std::vector<scheme::CipherPair>& pairs,
                 std::size_t dim, bool first_half) {
  const std::size_t r0 = dest.rows();
  dest.conservative_resize(r0 + pairs.size(), dim);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Vec& half = first_half ? pairs[i].a : pairs[i].b;
    require(half.size() == dim, "CoaSession: ragged ciphertexts");
    std::copy(half.begin(), half.end(), dest.row_ptr(r0 + i));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// CoaSession

CoaSession::CoaSession(SnmfAttackOptions options, ExecContext ctx)
    : options_(options), ctx_(ctx) {}

CoaSession::CoaSession(CoaSessionSnapshot snapshot, SnmfAttackOptions options,
                       ExecContext ctx)
    : options_(options), ctx_(ctx) {
  require(snapshot.index_a.rows() == snapshot.scores.rows() &&
              snapshot.index_b.rows() == snapshot.scores.rows(),
          "CoaSession: snapshot index halves disagree with the score matrix");
  require(snapshot.trapdoor_a.rows() == snapshot.scores.cols() &&
              snapshot.trapdoor_b.rows() == snapshot.scores.cols(),
          "CoaSession: snapshot trapdoor halves disagree with the score "
          "matrix");
  require(snapshot.index_a.cols() == snapshot.trapdoor_a.cols() &&
              snapshot.index_b.cols() == snapshot.trapdoor_b.cols(),
          "CoaSession: snapshot half dimensions disagree");
  if (snapshot.factorization) {
    const nmf::NmfResult& f = *snapshot.factorization;
    require(f.w.rows() == f.h.rows() &&
                f.w.cols() == snapshot.scores.rows() &&
                f.h.cols() == snapshot.scores.cols(),
            "CoaSession: snapshot factorization shape mismatch");
  }
  da_ = snapshot.index_a.cols();
  db_ = snapshot.index_b.cols();
  ia_ = std::move(snapshot.index_a);
  ib_ = std::move(snapshot.index_b);
  ta_ = std::move(snapshot.trapdoor_a);
  tb_ = std::move(snapshot.trapdoor_b);
  scores_ = std::move(snapshot.scores);
  factorization_ = std::move(snapshot.factorization);
}

void CoaSession::fold_recording(obs::ScopedRecording& rec, double seconds) {
  pending_seconds_ += seconds;
  obs::Summary s = rec.finish();
  for (const auto& [name, value] : s.counters) {
    pending_.counters[name] += value;
  }
  for (const auto& [name, value] : s.gauges) pending_.gauges[name] = value;
  pending_.spans.insert(pending_.spans.end(),
                        std::make_move_iterator(s.spans.begin()),
                        std::make_move_iterator(s.spans.end()));
}

void CoaSession::append_ciphertexts(const sse::CoaView& delta) {
  const std::size_t k = delta.cipher_indexes.size();
  const std::size_t c = delta.cipher_trapdoors.size();
  if (k == 0 && c == 0) return;
  Stopwatch watch;
  obs::ScopedRecording rec(ctx_.sink);
  {
    obs::Span root("coa/append");
    if (da_ == 0 && db_ == 0) {
      const scheme::CipherPair& probe =
          k > 0 ? delta.cipher_indexes[0] : delta.cipher_trapdoors[0];
      da_ = probe.a.size();
      db_ = probe.b.size();
      require(da_ > 0 || db_ > 0, "CoaSession: empty ciphertexts");
    }
    const std::size_t n_old = scores_.rows();
    const std::size_t m_old = scores_.cols();
    append_half(ia_, delta.cipher_indexes, da_, true);
    append_half(ib_, delta.cipher_indexes, db_, false);
    append_half(ta_, delta.cipher_trapdoors, da_, true);
    append_half(tb_, delta.cipher_trapdoors, db_, false);

    const std::size_t n = n_old + k;
    const std::size_t m = m_old + c;
    scores_.conservative_resize(n, m);

    // Column band: old indexes x new trapdoors. Row band: new indexes x
    // all trapdoors. Together they cover exactly the fresh entries; the
    // integer rounding below makes each entry bit-identical to the batch
    // build regardless of band shape or thread count.
    if (n_old > 0 && c > 0) {
      auto band = scores_.view().block(0, m_old, n_old, c);
      linalg::gemm(1.0, ia_.cview().block(0, 0, n_old, da_), linalg::Op::None,
                   ta_.cview().block(m_old, 0, c, da_), linalg::Op::Transpose,
                   0.0, band, ctx_.threads);
      linalg::gemm(1.0, ib_.cview().block(0, 0, n_old, db_), linalg::Op::None,
                   tb_.cview().block(m_old, 0, c, db_), linalg::Op::Transpose,
                   1.0, band, ctx_.threads);
    }
    if (k > 0 && m > 0) {
      auto band = scores_.view().block(n_old, 0, k, m);
      linalg::gemm(1.0, ia_.cview().block(n_old, 0, k, da_), linalg::Op::None,
                   ta_.cview(), linalg::Op::Transpose, 0.0, band,
                   ctx_.threads);
      linalg::gemm(1.0, ib_.cview().block(n_old, 0, k, db_), linalg::Op::None,
                   tb_.cview(), linalg::Op::Transpose, 1.0, band,
                   ctx_.threads);
    }
    par::parallel_for(
        0, n, 1,
        [&](std::size_t i) {
          double* ri = scores_.row_ptr(i);
          for (std::size_t j = i < n_old ? m_old : 0; j < m; ++j) {
            ri[j] = std::max(0.0, std::round(ri[j]));
          }
        },
        ctx_.threads);

    obs::counter_add("score.appended_rows", static_cast<double>(k));
    obs::counter_add("score.appended_cols", static_cast<double>(c));
  }
  const bool recorded = rec.active();
  fold_recording(rec, watch.seconds());
  if (!recorded) {
    pending_.counters["score.appended_rows"] += static_cast<double>(k);
    pending_.counters["score.appended_cols"] += static_cast<double>(c);
  }
}

std::size_t CoaSession::estimate_rank(double rel_tol) {
  require(scores_.rows() > 0 && scores_.cols() > 0,
          "CoaSession: no ciphertexts appended yet");
  Stopwatch watch;
  obs::ScopedRecording rec(ctx_.sink);
  std::size_t rank = 0;
  {
    obs::Span root("coa/estimate_rank");
    rank = estimate_latent_dimension(scores_.cview(), svd_state_, rel_tol,
                                     ctx_);
  }
  fold_recording(rec, watch.seconds());
  return rank;
}

void CoaSession::set_rank(std::size_t rank) {
  require(rank > 0, "CoaSession: rank must be positive");
  if (rank != options_.rank) factorization_.reset();
  options_.rank = rank;
}

SnmfAttackResult CoaSession::attack() {
  require(options_.rank > 0,
          "CoaSession: rank not set (call set_rank or estimate_rank first)");
  require(scores_.rows() > 0 && scores_.cols() > 0,
          "CoaSession: no ciphertexts appended yet");
  Stopwatch watch;
  obs::ScopedRecording rec(ctx_.sink);
  std::optional<obs::Span> root;
  if (rec.active()) root.emplace("snmf/attack");

  SnmfAttackResult result;
  const bool can_resume = factorization_ &&
                          factorization_->w.rows() == options_.rank &&
                          factorization_->w.cols() <= scores_.rows() &&
                          factorization_->h.cols() <= scores_.cols();
  if (can_resume) {
    nmf::SparseNmfOptions resume_opts = options_.nmf;
    if (options_.resume_iterations > 0) {
      resume_opts.max_iterations = options_.resume_iterations;
    }
    SnmfSelection selection;
    selection.factorization =
        nmf::sparse_nmf_resume(scores_, options_.rank, resume_opts,
                               *factorization_, ctx_.resolved_threads());
    selection.selected_restart = 0;
    selection.restarts_run = 1;
    selection.nmf_iterations = selection.factorization.iterations;
    result = binarize_snmf_selection(selection, options_);
    obs::counter_add("snmf.resumes", 1.0);
    result.telemetry.counters["snmf.resumes"] = 1.0;
    factorization_ = std::move(selection.factorization);
  } else {
    // Cold path — the exact batch pipeline, so a fresh session's first
    // attack is bit-identical to run_snmf_attack(scores, options, ctx).
    std::vector<nmf::NmfInit> inits = draw_snmf_inits(scores_, options_, ctx_);
    SnmfSelection selection =
        run_snmf_restarts(scores_, options_, std::move(inits), ctx_);
    result = binarize_snmf_selection(selection, options_);
    factorization_ = std::move(selection.factorization);
  }

  root.reset();
  result.telemetry.wall_seconds = watch.seconds();
  result.telemetry.absorb(rec.finish());

  // Fold in whatever the appends / rank estimates recorded since the last
  // attack: counters and prep time add, gauges keep their latest value,
  // span aggregates merge by name.
  for (const auto& [name, value] : pending_.counters) {
    result.telemetry.counters[name] += value;
  }
  for (const auto& [name, value] : pending_.gauges) {
    result.telemetry.gauges[name] = value;
  }
  if (!pending_.spans.empty()) {
    std::vector<obs::SpanStat> extra = obs::aggregate_spans(pending_.spans);
    for (obs::SpanStat& stat : extra) {
      auto it = std::find_if(
          result.telemetry.spans.begin(), result.telemetry.spans.end(),
          [&](const obs::SpanStat& s) { return s.name == stat.name; });
      if (it == result.telemetry.spans.end()) {
        result.telemetry.spans.push_back(std::move(stat));
      } else {
        it->count += stat.count;
        it->total_seconds += stat.total_seconds;
      }
    }
  }
  if (pending_seconds_ > 0.0) {
    result.telemetry.counters["session.prep_seconds"] += pending_seconds_;
  }
  pending_ = obs::Summary{};
  pending_seconds_ = 0.0;
  return result;
}

std::size_t CoaSession::resident_bytes() const {
  std::size_t doubles = 0;
  for (const Matrix* m : {&ia_, &ib_, &ta_, &tb_, &scores_}) {
    doubles += m->rows() * m->cols();
  }
  if (factorization_) {
    const auto& f = *factorization_;
    doubles += f.w.rows() * f.w.cols() + f.h.rows() * f.h.cols();
  }
  if (svd_state_) {
    const auto& svd = *svd_state_;
    doubles += svd.u().rows() * svd.u().cols() +
               svd.v().rows() * svd.v().cols() +
               svd.singular_values().size();
  }
  return doubles * sizeof(double);
}

CoaSessionSnapshot CoaSession::snapshot() const {
  CoaSessionSnapshot s;
  s.index_a = ia_;
  s.index_b = ib_;
  s.trapdoor_a = ta_;
  s.trapdoor_b = tb_;
  s.scores = scores_;
  s.factorization = factorization_;
  return s;
}

// ---------------------------------------------------------------------------
// LepSession

LepSession::LepSession(LepOptions options, ExecContext ctx)
    : options_(options), ctx_(ctx) {}

LepSession::LepSession(LepSessionSnapshot snapshot, LepOptions options,
                       ExecContext ctx)
    : options_(options), ctx_(ctx) {
  n_ = snapshot.dimension;
  warm_resolves_ = snapshot.warm_resolves;
  if (n_ == 0) {
    require(snapshot.chosen_pairs.empty() && snapshot.trapdoors.empty() &&
                snapshot.indexes.empty(),
            "LepSession: snapshot has solves but no dimension");
    trapdoor_ciphers_ = std::move(snapshot.trapdoor_ciphers);
    index_ciphers_ = std::move(snapshot.index_ciphers);
    return;
  }
  pair_tracker_.emplace(n_, options_.independence_tol);
  trapdoor_tracker_.emplace(n_, options_.independence_tol);
  require(snapshot.chosen_pairs.size() <= n_,
          "LepSession: snapshot has more basis pairs than the dimension");
  for (const auto& pair : snapshot.chosen_pairs) {
    require(pair.plain_index.size() == n_ &&
                pair_tracker_->try_add(pair.plain_index),
            "LepSession: snapshot basis pairs are not independent");
    chosen_.push_back(pair);
  }
  trapdoor_ciphers_ = std::move(snapshot.trapdoor_ciphers);
  index_ciphers_ = std::move(snapshot.index_ciphers);
  if (pair_tracker_->complete()) {
    factor_pair_basis();
    require(snapshot.trapdoors.size() == trapdoor_ciphers_.size(),
            "LepSession: snapshot trapdoor solves are incomplete");
  } else {
    require(snapshot.trapdoors.empty() && snapshot.indexes.empty(),
            "LepSession: snapshot has solves without a complete pair basis");
  }
  trapdoors_ = std::move(snapshot.trapdoors);
  // Unpacked queries and the trapdoor basis are pure functions of the
  // solved trapdoors — replay them instead of trusting the snapshot.
  queries_.reserve(trapdoors_.size());
  query_multipliers_.reserve(trapdoors_.size());
  for (const Vec& t : trapdoors_) {
    require(t.size() == n_, "LepSession: snapshot trapdoor dimension");
    auto rq = scheme::query_from_trapdoor(t);
    queries_.push_back(std::move(rq.q));
    query_multipliers_.push_back(rq.r);
  }
  scan_trapdoor_basis();
  if (b_lu_) {
    require(snapshot.indexes.size() == index_ciphers_.size(),
            "LepSession: snapshot index solves are incomplete");
  } else {
    require(snapshot.indexes.empty(),
            "LepSession: snapshot has index solves without a trapdoor basis");
  }
  indexes_ = std::move(snapshot.indexes);
  records_.reserve(indexes_.size());
  for (const Vec& index : indexes_) {
    require(index.size() == n_, "LepSession: snapshot index dimension");
    records_.push_back(scheme::record_from_index(index));
  }
}

void LepSession::factor_pair_basis() {
  std::vector<Vec> a_rows;
  a_rows.reserve(n_);
  for (const auto& pair : chosen_) a_rows.push_back(pair.plain_index);
  a_lu_.emplace(Matrix::from_rows(a_rows));
  if (a_lu_->is_singular()) {
    throw NumericalError("LEP: known-pair system unexpectedly singular");
  }
}

void LepSession::add_known_pairs(
    const std::vector<sse::KnownIndexPair>& pairs) {
  if (pairs.empty() || a_lu_) return;
  obs::ScopedRecording rec(ctx_.sink);
  {
    obs::Span root("lep/append");
    {
      obs::Span span("lep/select_known_basis");
      for (const auto& pair : pairs) {
        if (a_lu_) break;  // basis complete; ignore the rest (batch scan)
        if (n_ == 0) {
          n_ = pair.plain_index.size();
          require(n_ > 0, "LEP: empty known-pair index");
          pair_tracker_.emplace(n_, options_.independence_tol);
          trapdoor_tracker_.emplace(n_, options_.independence_tol);
        }
        require(pair.plain_index.size() == n_,
                "LEP: inconsistent known-pair dimensions");
        if (pair_tracker_->try_add(pair.plain_index)) {
          chosen_.push_back(pair);
          if (pair_tracker_->complete()) factor_pair_basis();
        }
      }
    }
    // Queued ciphertexts drain cold: they were pending, not re-solved.
    advance(false, false);
  }
  rec.finish();
}

void LepSession::advance(bool trap_warm, bool idx_warm) {
  if (a_lu_ && trapdoors_.size() < trapdoor_ciphers_.size()) {
    const std::size_t j0 = trapdoors_.size();
    const std::size_t j1 = trapdoor_ciphers_.size();
    trapdoors_.resize(j1);
    {
      obs::Span span("lep/recover_trapdoors");
      par::parallel_for(
          j0, j1, 1,
          [&](std::size_t j) {
            Vec rhs(n_);
            for (std::size_t i = 0; i < n_; ++i) {
              rhs[i] = cipher_score(chosen_[i].cipher, trapdoor_ciphers_[j]);
            }
            trapdoors_[j] = a_lu_->solve(rhs);
          },
          ctx_.resolved_threads());
    }
    if (trap_warm) warm_resolves_ += j1 - j0;
    queries_.reserve(j1);
    query_multipliers_.reserve(j1);
    for (std::size_t j = j0; j < j1; ++j) {
      auto rq = scheme::query_from_trapdoor(trapdoors_[j]);
      queries_.push_back(std::move(rq.q));
      query_multipliers_.push_back(rq.r);
    }
  }
  scan_trapdoor_basis();
  if (b_lu_ && indexes_.size() < index_ciphers_.size()) {
    const std::size_t i0 = indexes_.size();
    const std::size_t i1 = index_ciphers_.size();
    indexes_.resize(i1);
    records_.resize(i1);
    {
      obs::Span span("lep/recover_indexes");
      par::parallel_for(
          i0, i1, 1,
          [&](std::size_t idx) {
            Vec rhs(n_);
            for (std::size_t k = 0; k < n_; ++k) {
              rhs[k] = cipher_score(index_ciphers_[idx],
                                    trapdoor_ciphers_[basis_ids_[k]]);
            }
            Vec index = b_lu_->solve(rhs);
            records_[idx] = scheme::record_from_index(index);
            indexes_[idx] = std::move(index);
          },
          ctx_.resolved_threads());
    }
    if (idx_warm) warm_resolves_ += i1 - i0;
  }
}

void LepSession::scan_trapdoor_basis() {
  if (n_ == 0 || b_lu_) return;
  {
    obs::Span span("lep/scan_trapdoor_basis");
    for (std::size_t j = scanned_for_basis_;
         j < trapdoors_.size() && !trapdoor_tracker_->complete(); ++j) {
      scanned_for_basis_ = j + 1;
      if (trapdoor_tracker_->try_add(trapdoors_[j])) basis_ids_.push_back(j);
    }
  }
  if (!trapdoor_tracker_->complete()) return;
  std::vector<Vec> b_rows;
  b_rows.reserve(n_);
  for (auto j : basis_ids_) b_rows.push_back(trapdoors_[j]);
  b_lu_.emplace(Matrix::from_rows(b_rows));
  if (b_lu_->is_singular()) {
    throw NumericalError("LEP: trapdoor basis unexpectedly singular");
  }
}

void LepSession::append_ciphertexts(const sse::CoaView& delta) {
  if (delta.cipher_trapdoors.empty() && delta.cipher_indexes.empty()) return;
  obs::ScopedRecording rec(ctx_.sink);
  {
    obs::Span root("lep/append");
    // Warm re-solves are the marginal cost of staying current: solves made
    // while the session was already ready() at entry — both LU bases
    // stored, result() attainable — are work a batch pipeline would redo
    // from scratch. Anything before that point (initial drains, basis
    // completion inside this call) counts cold.
    const bool warm = ready();
    trapdoor_ciphers_.insert(trapdoor_ciphers_.end(),
                             delta.cipher_trapdoors.begin(),
                             delta.cipher_trapdoors.end());
    index_ciphers_.insert(index_ciphers_.end(), delta.cipher_indexes.begin(),
                          delta.cipher_indexes.end());
    advance(warm, warm);
    obs::counter_add("lep.appended_trapdoors",
                     static_cast<double>(delta.cipher_trapdoors.size()));
    obs::counter_add("lep.appended_indexes",
                     static_cast<double>(delta.cipher_indexes.size()));
  }
  rec.finish();
}

LepResult LepSession::result() const {
  Stopwatch watch;
  require(n_ > 0, "LEP: no known plaintext-ciphertext pairs");
  if (!a_lu_) {
    throw NumericalError(
        "LEP: fewer than d+1 linearly independent known records (the "
        "paper's KPA assumption is not met)");
  }
  if (!b_lu_) {
    throw NumericalError(
        "LEP: fewer than d+1 linearly independent trapdoors observed; the "
        "adversary must wait for more queries");
  }
  LepResult result;
  result.trapdoors = trapdoors_;
  result.queries = queries_;
  result.query_multipliers = query_multipliers_;
  result.indexes = indexes_;
  result.records = records_;
  result.telemetry.counters["lep.dimension"] = static_cast<double>(n_);
  result.telemetry.counters["lep.trapdoor_solves"] =
      static_cast<double>(trapdoors_.size());
  result.telemetry.counters["lep.index_solves"] =
      static_cast<double>(indexes_.size());
  result.telemetry.counters["lep.trapdoors_scanned_for_basis"] =
      static_cast<double>(scanned_for_basis_);
  result.telemetry.counters["lep.warm_resolves"] =
      static_cast<double>(warm_resolves_);
  result.telemetry.wall_seconds = watch.seconds();
  return result;
}

std::size_t LepSession::resident_bytes() const {
  std::size_t doubles = query_multipliers_.size() + 4 * n_ * n_;
  for (const auto& pair : chosen_) {
    doubles += pair.plain_index.size() + pair.cipher.a.size() +
               pair.cipher.b.size();
  }
  for (const auto* ciphers : {&trapdoor_ciphers_, &index_ciphers_}) {
    for (const auto& c : *ciphers) doubles += c.a.size() + c.b.size();
  }
  for (const auto* vecs : {&trapdoors_, &queries_, &indexes_, &records_}) {
    for (const auto& v : *vecs) doubles += v.size();
  }
  return doubles * sizeof(double);
}

LepSessionSnapshot LepSession::snapshot() const {
  LepSessionSnapshot s;
  s.dimension = n_;
  s.chosen_pairs = chosen_;
  s.trapdoor_ciphers = trapdoor_ciphers_;
  s.trapdoors = trapdoors_;
  s.index_ciphers = index_ciphers_;
  s.indexes = indexes_;
  s.warm_resolves = warm_resolves_;
  return s;
}

}  // namespace aspe::core
