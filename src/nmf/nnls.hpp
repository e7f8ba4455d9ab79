// Non-negative least squares (Lawson-Hanson active set).
//
// Kernel of the ANLS sparse-NMF solver (Kim & Park 2007, the paper's
// reference [12]): each NMF half-step is a batch of NNLS problems sharing one
// Gram matrix.
//
// Warm starts: consecutive ANLS outer iterations solve the same column
// against a slowly-moving Gram matrix, and the optimal active set barely
// changes between them. NnlsWorkspace carries each column's passive set
// (and the Cholesky factor of the passive Gram block, incrementally
// up/downdated as variables enter and leave) across calls, so iteration
// t+1 starts from iteration t's support instead of from zero.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace aspe::nmf {

/// Per-column state carried across nnls_gram calls.
///
/// What persists is the passive SET only — the Gram matrix is different on
/// every ANLS half-step, so the factor is rebuilt from the new G at the
/// start of each warm call (and then up/downdated incrementally while the
/// active-set loop runs). The set is kept sorted ascending, which makes the
/// factor — and therefore the returned x — a pure function of (G, f, final
/// set), independent of the order in which variables entered: a warm solve
/// and a cold solve that terminate on the same support return bit-identical
/// solutions.
class NnlsWorkspace {
 public:
  NnlsWorkspace() = default;

  /// Forget the carried passive set; the next solve starts cold.
  void clear();

  /// Adopt the support of x (its strictly positive entries) as the carried
  /// passive set, as if a previous solve had terminated on it. This is how
  /// a resumed ANLS run re-arms warm starts from a deserialized or
  /// dimension-extended factor: the next nnls_gram call on this workspace
  /// must then pass that same x, per the warm-start contract below.
  void seed_from_support(linalg::ConstVecView x);

  /// Support of the last solution, ascending.
  [[nodiscard]] const std::vector<std::size_t>& passive_set() const {
    return passive_;
  }

  // --- Statistics of the most recent nnls_gram call on this workspace.

  /// Whether the call started from a non-empty inherited passive set.
  [[nodiscard]] bool warm_started() const { return warm_started_; }
  /// Whether a warm-started call terminated on the inherited set unchanged
  /// (the KKT conditions held without any active-set move) — the "warm hit"
  /// the obs counters report.
  [[nodiscard]] bool passive_set_reused() const { return set_reused_; }
  [[nodiscard]] std::size_t outer_iterations() const {
    return outer_iterations_;
  }
  /// Cholesky rows (re)computed — the actual up/downdate work. A cold solve
  /// of a size-k support pays at least k(k+1)/2 row-updates' worth; a warm
  /// hit pays exactly k (the initial refactorization against the new G).
  [[nodiscard]] std::size_t factor_rows_computed() const {
    return factor_rows_;
  }

 private:
  friend void nnls_gram(const linalg::Matrix& g, linalg::ConstVecView f,
                        linalg::VecView x, NnlsWorkspace& workspace);

  void ensure_capacity(std::size_t k, std::size_t n);
  /// Recompute factor rows [from, passive_.size()) against g. Rows < from
  /// stay valid: Cholesky row i depends only on rows < i, so inserting or
  /// removing the variable at sorted position p invalidates rows >= p and
  /// nothing else. Throws NumericalError when a pivot is not positive.
  void refactor_from(const linalg::Matrix& g, std::size_t from);
  /// z_ <- G_PP^{-1} f_P via the current factor (forward + back subst).
  void solve_passive(linalg::ConstVecView f);

  // Every buffer is reused across calls and only grows, so a warm re-solve
  // allocates nothing once the buffers have reached its sizes
  // (tests/test_alloc_free.cpp).
  std::vector<std::size_t> passive_;  // ascending
  std::vector<std::uint8_t> in_passive_;
  std::vector<std::size_t> inherited_;  // passive_ as the call found it
  linalg::Matrix l_;  // factor buffer; leading k x k lower triangle in use
  Vec z_;             // passive-block solution, aligned with passive_
  Vec w_;             // dual scratch
  Vec step_;          // inner-loop step scratch
  bool warm_started_ = false;
  bool set_reused_ = false;
  std::size_t outer_iterations_ = 0;
  std::size_t factor_rows_ = 0;
};

/// The two Cholesky kernels under NnlsWorkspace, exposed so that tests can
/// hold them bit for bit against a scalar reference.
///
/// cholesky_rows computes rows [from, idx.size()) of the lower Cholesky
/// factor of G's principal block on the indices idx into the leading
/// triangle of l (at least idx.size() square); rows < from are read, not
/// written. Every entry is the scalar row-by-row arithmetic: each inner
/// product starts from 0.0, adds in ascending index order and is then
/// subtracted and divided. Returns idx.size(), or the first row whose pivot
/// is not positive and finite (the rows before it are then valid).
std::size_t cholesky_rows(const linalg::Matrix& g,
                          std::span<const std::size_t> idx, std::size_t from,
                          linalg::Matrix& l);

/// z <- (L L^T)^{-1} f_idx with L the leading idx.size() triangle of l:
/// forward substitution, then back substitution, each sum in ascending
/// index order from 0.0. z holds idx.size() entries.
void cholesky_solve(const linalg::Matrix& l, std::span<const std::size_t> idx,
                    linalg::ConstVecView f, double* z);

/// Solve min ||A x - b||_2, x >= 0, given the Gram matrix G = A^T A and
/// f = A^T b. G must be symmetric positive definite on every principal
/// submatrix encountered (guaranteed when A has full column rank or a ridge
/// was added).
///
/// View form: f and x may be strided matrix columns; the solution is written
/// into x in place (x is zeroed first, so it needs no initialization). f and
/// x must not alias. This is the batch entry point the ANLS solver uses —
/// one Gram matrix, one NNLS call per column, zero per-column copies.
void nnls_gram(const linalg::Matrix& g, linalg::ConstVecView f,
               linalg::VecView x);

/// Warm-startable form. When `workspace` carries a passive set from a
/// previous call, x must hold the previous solution (its support is the
/// carried set; off-support entries are forced to zero) — exactly what an
/// ANLS column view contains between outer iterations. With an empty
/// workspace this is the cold solve above, sharing every code path.
void nnls_gram(const linalg::Matrix& g, linalg::ConstVecView f,
               linalg::VecView x, NnlsWorkspace& workspace);

/// Owning convenience wrapper around the view form.
[[nodiscard]] Vec nnls_gram(const linalg::Matrix& g, const Vec& f);

/// Convenience wrapper forming G and f from A and b.
[[nodiscard]] Vec nnls(const linalg::Matrix& a, const Vec& b);

}  // namespace aspe::nmf
