// Free-function linear-algebra kernels over views (the BLAS-shaped layer).
//
// Every dense product in the library funnels through these entry points:
// `Matrix::operator*`, `apply`, `apply_transposed` and the NMF / simplex /
// attack hot loops all call gemm / gemv / gram / dot / axpy on views, so
// transposition is an `Op` flag and sub-blocks are strides — never copies.
//
// Determinism contract (same as aspe::par): for a fixed problem size the
// result is bit-identical at any thread count. In gemm each output tile is
// accumulated by exactly one task, k panel after k panel in ascending order,
// and the task split follows from the shapes alone — so only the wall clock
// moves with the thread count.
//
// Aliasing: input views may alias each other (gemm(A, A) is how gram works);
// output views must not alias any input.
#pragma once

#include "linalg/matrix_view.hpp"

namespace aspe::linalg {

/// Inner product sum_i x[i] * y[i], accumulated in ascending index order.
[[nodiscard]] double dot(ConstVecView x, ConstVecView y);

/// y += alpha * x.
void axpy(double alpha, ConstVecView x, VecView y);

/// x *= alpha.
void scal(double alpha, VecView x);

/// Plane rotation: (x[i], y[i]) <- (c x[i] - s y[i], s x[i] + c y[i]).
/// The Givens/Jacobi workhorse; column views make it strided.
void rot(VecView x, VecView y, double c, double s);

/// y = alpha * op(a) x + beta * y. Deterministic at any thread count
/// (`threads` caps the fan-out; 0 = process default).
void gemv(double alpha, ConstMatrixView a, Op opa, ConstVecView x, double beta,
          VecView y, std::size_t threads = 0);

/// c = alpha * op(a) op(b) + beta * c.
///
/// Large products run a cache-blocked packed kernel: A and B panels are
/// packed into contiguous tiles and multiplied by an MR x NR register
/// micro-kernel, parallel over row blocks and column panels of C (one
/// pool batch a call; none on one thread). Small products use the
/// plain i-k-j loop (identical to the pre-view implementation, so small
/// fixtures keep bit-identical results).
void gemm(double alpha, ConstMatrixView a, Op opa, ConstMatrixView b, Op opb,
          double beta, MatrixView c, std::size_t threads = 0);

/// g = a a^T (row Gram matrix, g must be a.rows() x a.rows()). Computes the
/// upper triangle by contiguous row dots and mirrors it — the symmetric
/// half-cost path the NMF updates rely on.
void gram(ConstMatrixView a, MatrixView g, std::size_t threads = 0);

/// out = op(a) elementwise (cache-blocked copy; out must not alias a).
void transpose_copy(ConstMatrixView a, MatrixView out);

/// The micro-architecture level the multiversioned GEMM micro-kernel
/// dispatches to on this machine: 0 = baseline x86-64 (or clones compiled
/// out, e.g. under sanitizers / non-GCC), 1 = x86-64-v3 (AVX2+FMA),
/// 2 = x86-64-v4 (AVX-512). Exposed for telemetry ("linalg.gemm.arch_level"
/// gauge) and bench provenance.
[[nodiscard]] int gemm_dispatch_arch_level();

}  // namespace aspe::linalg
