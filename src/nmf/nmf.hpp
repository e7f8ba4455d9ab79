// Sparse non-negative matrix factorization.
//
// Implements the objective the paper optimizes in Algorithm 3 (Eq. 18):
//
//   min_{W>=0, H>=0}  1/2 ||R - W^T H||_F^2
//                   + eta/2 ||W||_F^2  +  lambda/2 sum_j ||h_j||_1^2
//
// where R is m x n, W is d x m (columns = indexes I_i) and H is d x n
// (columns = trapdoors T_j). The solver is ANLS — alternating
// non-negativity-constrained least squares (Kim & Park 2007, the paper's
// citation [12]): each iteration solves every column of H, then of W, as an
// active-set NNLS problem (nnls.hpp), which dominates its cost.
#pragma once

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace aspe::nmf {

enum class Initialization {
  /// iid uniform entries scaled to R's magnitude (the classic default; runs
  /// differ per restart, which is what Algorithm 3's best-of-L exploits).
  Random,
  /// NNDSVD (Boutsidis & Gallopoulos 2008): deterministic initialization
  /// from the leading singular triplets of R. Faster convergence on
  /// well-conditioned inputs; restarts become pointless (deterministic).
  Nndsvd,
};

struct SparseNmfOptions {
  double eta = 0.01;     // Frobenius penalty on W
  double lambda = 0.01;  // L1^2 penalty on columns of H
  std::size_t max_iterations = 200;
  double rel_tol = 1e-5;  // stop when relative objective change is below
  Initialization init = Initialization::Random;
  /// Carry each column's NNLS passive set across outer iterations
  /// (NnlsWorkspace), so iteration t+1 starts from iteration t's support
  /// instead of from zero. The warm and cold paths share every solve formula
  /// and terminate on the same KKT support for non-degenerate problems, so
  /// the factorization is bit-identical to warm_start = false — just
  /// cheaper. Disable to benchmark the cold path or to sidestep a
  /// (measure-zero) dual tie at the tolerance boundary.
  bool warm_start = true;
};

struct NmfResult {
  linalg::Matrix w;  // d x m, non-negative
  linalg::Matrix h;  // d x n, non-negative
  double objective = 0.0;   // final value of Eq. (18)
  double fit_error = 0.0;   // ||R - W^T H||_F
  std::size_t iterations = 0;
};

/// Initial (W, H) pair for one sparse-NMF run. Drawing the initialization
/// is the only step that consumes RNG state, so restarts can pre-draw their
/// inits in restart order and then optimize in parallel with results
/// bit-identical to the serial loop (see core::run_snmf_attack).
struct NmfInit {
  linalg::Matrix w;  // d x m
  linalg::Matrix h;  // d x n
};

/// Draw the initial factors for one run (Random init consumes rng; Nndsvd
/// is deterministic and leaves rng untouched). Validates r and rank.
[[nodiscard]] NmfInit nmf_initialize(const linalg::Matrix& r, std::size_t rank,
                                     const SparseNmfOptions& options,
                                     rng::Rng& rng);

/// Run the ANLS iterations from a given initialization. `threads` caps
/// the width of the per-iteration parallel sections (0 = process default);
/// the result is bit-identical for any width.
[[nodiscard]] NmfResult sparse_nmf_from_init(const linalg::Matrix& r,
                                             std::size_t rank,
                                             const SparseNmfOptions& options,
                                             NmfInit init,
                                             std::size_t threads = 0);

/// One run of sparse NMF from a random non-negative initialization.
/// `rank` is the paper's d (bloom-filter length). Equivalent to
/// nmf_initialize + sparse_nmf_from_init.
[[nodiscard]] NmfResult sparse_nmf(const linalg::Matrix& r, std::size_t rank,
                                   const SparseNmfOptions& options,
                                   rng::Rng& rng);

/// Warm-restart a factorization after R grew: `prev` factored the leading
/// prev.w.cols() x prev.h.cols() block of the new r (same rank). New W / H
/// columns — one per appended row / column of R — are initialized by a
/// single NNLS projection against the carried opposite factor, then the
/// ANLS loop runs from the extended pair with every column's passive set
/// seeded from its support. On an unchanged R this
/// terminates in one or two cheap verification iterations; after a small
/// append it converges in a handful, against max_iterations from scratch.
[[nodiscard]] NmfResult sparse_nmf_resume(const linalg::Matrix& r,
                                          std::size_t rank,
                                          const SparseNmfOptions& options,
                                          const NmfResult& prev,
                                          std::size_t threads = 0);

/// Rescale latent dimensions so rows of W and H carry comparable magnitude
/// (W^T H is invariant). Makes the fixed binarization threshold meaningful.
void balance_rows(linalg::Matrix& w, linalg::Matrix& h);

/// The paper's ConvertToBinaryMatrix: entries below `theta` -> 0, else 1.
[[nodiscard]] linalg::Matrix to_binary(const linalg::Matrix& m, double theta);

}  // namespace aspe::nmf
