#include "linalg/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "obs/obs.hpp"
#include "par/parallel.hpp"

namespace aspe::linalg {

namespace {

// Products smaller than this many scalar multiply-adds are not worth the
// pool dispatch; measured crossover is a few hundred thousand flops. The
// same bound gates the packed-GEMM path, so small fixtures keep the exact
// arithmetic order of the pre-view triple loop.
constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 18;

// Packed-GEMM blocking. The micro-kernel computes an MR x NR tile of C from
// panels packed k-major. KC fixes the floating-point accumulation order:
// each element of C sums its products in KC-long runs, each from 0.0, and
// adds the runs in ascending order. MR, NR, MC and NC only size the tiles
// and the packed blocks (an MC x KC block of A for L2, a KC x NC panel of
// B, 512 KB, per concurrent task), so they move no bits.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;
constexpr std::size_t kMc = 96;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 256;

std::size_t ceil_div(std::size_t x, std::size_t y) { return (x + y - 1) / y; }

std::size_t row_grain(std::size_t rows, std::size_t flops_per_row) {
  const std::size_t grain =
      kParallelFlopThreshold / std::max<std::size_t>(flops_per_row, 1);
  return std::clamp<std::size_t>(grain, 1, std::max<std::size_t>(rows, 1));
}

void scale_output(double beta, MatrixView c) {
  for (std::size_t r = 0; r < c.rows(); ++r) {
    double* cr = c.row_ptr(r);
    if (beta == 0.0) {
      std::fill(cr, cr + c.cols(), 0.0);
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < c.cols(); ++j) cr[j] *= beta;
    }
  }
}

/// Plain i-k-j product for small shapes: identical inner order to the
/// historical Matrix::operator* (alpha = 1, Op::None) so small fixtures stay
/// bit-for-bit. Assumes C was already scaled by beta.
void gemm_naive(double alpha, ConstMatrixView a, Op opa, ConstMatrixView b,
                Op opb, MatrixView c) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t k = op_cols(a, opa);
  if (opb == Op::None) {
    for (std::size_t i = 0; i < m; ++i) {
      double* ci = c.row_ptr(i);
      for (std::size_t p = 0; p < k; ++p) {
        const double av = alpha * op_at(a, opa, i, p);
        if (av == 0.0) continue;
        const double* bp = b.row_ptr(p);
        for (std::size_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      }
    }
    return;
  }
  // op(B) = B^T: rows of op(B) are columns of B, so the j loop runs over
  // contiguous rows of B and each (i, j) entry is a dot product.
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) {
      const double* bj = b.row_ptr(j);
      double s = 0.0;
      if (opa == Op::None) {
        const double* ai = a.row_ptr(i);
        for (std::size_t p = 0; p < k; ++p) s += ai[p] * bj[p];
      } else {
        for (std::size_t p = 0; p < k; ++p) s += a(p, i) * bj[p];
      }
      ci[j] += alpha * s;
    }
  }
}

Op flip(Op op) { return op == Op::None ? Op::Transpose : Op::None; }

/// Pack rows [k0, k0+kb) x cols [j0, j0+nb) of op(X) into W-wide k-major
/// panels: panel q holds cols j0 + q*W .., element (k, j) at
/// [(q*kb + k)*W + j], zero-padded on the right edge so the micro-kernel
/// runs fixed-trip loops. B packs as op(B) with W = NR; A as op(A)^T with
/// W = MR (panel p then holds rows i0 + p*MR .., element (r, k) at
/// [(p*kb + k)*MR + r]). Either way X is read a row at a time.
template <std::size_t W>
void pack_panels(ConstMatrixView x, Op op, std::size_t k0, std::size_t kb,
                 std::size_t j0, std::size_t nb, double* out) {
  const std::size_t panels = ceil_div(nb, W);
  if (op == Op::None) {
    // Rows of op(X) are rows of X. A few rows at a time are split across
    // the panels: the rows stay in L1 while each panel receives one
    // contiguous run (row by row, the panel writes alias in the cache).
    constexpr std::size_t kRows = 8;
    for (std::size_t k1 = 0; k1 < kb; k1 += kRows) {
      const std::size_t k2 = std::min(kb, k1 + kRows);
      for (std::size_t q = 0; q < panels; ++q) {
        const std::size_t w = std::min(W, nb - q * W);
        for (std::size_t k = k1; k < k2; ++k) {
          const double* src = x.row_ptr(k0 + k) + j0 + q * W;
          double* dst = out + (q * kb + k) * W;
          std::copy(src, src + w, dst);
          std::fill(dst + w, dst + W, 0.0);
        }
      }
    }
    return;
  }
  // Columns of op(X) are rows of X: each row fills one lane of a panel.
  for (std::size_t j = 0; j < panels * W; ++j) {
    double* dst = out + (j / W) * W * kb + j % W;
    if (j < nb) {
      const double* src = x.row_ptr(j0 + j) + k0;
      for (std::size_t k = 0; k < kb; ++k) dst[k * W] = src[k];
    } else {
      for (std::size_t k = 0; k < kb; ++k) dst[k * W] = 0.0;
    }
  }
}

// The build stays baseline x86-64 (SSE2); the micro-kernel alone is
// multiversioned so the loader picks an AVX2+FMA or AVX-512 clone when the
// CPU has one. Clone choice is per-machine, never per-thread-count, so the
// determinism contract is unaffected. Disabled under sanitizers: the ifunc
// resolver target_clones emits runs at relocation time, before the TSan
// runtime initializes, and crashes the instrumented binary at load.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__) &&        \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define ASPE_KERNEL_CLONES                                                    \
  __attribute__((noinline,                                                    \
                 target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#define ASPE_KERNEL_CLONES_ACTIVE 1
#else
#define ASPE_KERNEL_CLONES
#endif

/// C[0..mr) x [0..nr) += alpha * Ap Bp for one packed MR x NR tile. The
/// accumulators cover the full padded tile (fixed trip counts vectorize);
/// only the live mr x nr corner is written back.
ASPE_KERNEL_CLONES
void micro_kernel(std::size_t kb, const double* ap, const double* bp,
                  double alpha, double* c, std::size_t ldc, std::size_t mr,
                  std::size_t nr) {
  double acc[kMr][kNr] = {};
  for (std::size_t k = 0; k < kb; ++k) {
    const double* arow = ap + k * kMr;
    const double* brow = bp + k * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const double av = arow[r];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t j = 0; j < nr; ++j) c[r * ldc + j] += alpha * acc[r][j];
  }
}

/// Doubles of packing scratch gemm_tiles needs for an mb x nb range of C:
/// one KC x NC panel of B and one MC x KC block of A, both rounded up to
/// whole panels (pack_panels zero-pads the right edge, so nb = 300, NR = 8
/// would otherwise overrun by (304 - 300) * kb doubles).
std::size_t tile_scratch(std::size_t mb, std::size_t nb, std::size_t kdim) {
  const std::size_t kb = std::min(kdim, kKc);
  return kb * (std::min(ceil_div(nb, kNr) * kNr, kNc) +
               std::min(ceil_div(mb, kMr) * kMr, kMc));
}

/// The tiles of C in rows [i0, i1) x cols [j0, j1), loop order jc -> kc ->
/// ic: each B panel is packed once per (jc, kc) and shared by every row
/// block of the range. Every element of C receives its KC panels in
/// ascending order, each accumulated from 0.0 by the micro-kernel and added
/// in, whatever range the element falls in — so any split of C into such
/// ranges yields the same bits. `scratch` holds tile_scratch() doubles.
void gemm_tiles(double alpha, ConstMatrixView a, Op opa, ConstMatrixView b,
                Op opb, MatrixView c, std::size_t i0, std::size_t i1,
                std::size_t j0, std::size_t j1, double* scratch) {
  const std::size_t kdim = op_cols(a, opa);
  double* bpack = scratch;
  double* apack = scratch + std::min(kdim, kKc) *
                                std::min(ceil_div(j1 - j0, kNr) * kNr, kNc);
  for (std::size_t jc = j0; jc < j1; jc += kNc) {
    const std::size_t nb = std::min(kNc, j1 - jc);
    const std::size_t b_panels = ceil_div(nb, kNr);
    for (std::size_t kc = 0; kc < kdim; kc += kKc) {
      const std::size_t kb = std::min(kKc, kdim - kc);
      pack_panels<kNr>(b, opb, kc, kb, jc, nb, bpack);
      for (std::size_t ic = i0; ic < i1; ic += kMc) {
        const std::size_t mb = std::min(kMc, i1 - ic);
        pack_panels<kMr>(a, flip(opa), kc, kb, ic, mb, apack);
        const std::size_t a_panels = ceil_div(mb, kMr);
        for (std::size_t q = 0; q < b_panels; ++q) {
          const std::size_t col = jc + q * kNr;
          const std::size_t nr = std::min(kNr, jc + nb - col);
          const double* bq = bpack + q * kNr * kb;
          for (std::size_t p = 0; p < a_panels; ++p) {
            const std::size_t row = ic + p * kMr;
            const std::size_t mr = std::min(kMr, ic + mb - row);
            micro_kernel(kb, apack + p * kMr * kb, bq, alpha,
                         c.row_ptr(row) + col, c.row_stride(), mr, nr);
          }
        }
      }
    }
  }
}

// Tasks of the parallel product: rectangles of whole MC row blocks x whole
// NR column panels, spread evenly. Their number follows from the shape
// alone — one task per kParallelFlopThreshold multiply-adds, at most
// kMaxTasks — so an output with a single row block (ANLS's d x n
// products, the range finder's Q^T A) still splits, over column panels.
// Each task repacks the A rows or B columns it shares with others, which
// is why there are few: on 4 cores, 8 tasks ran the range finder's
// products as fast as 16 and faster than 64.
constexpr std::size_t kMaxTasks = 8;

struct TileSplit {
  std::size_t row_blocks, row_tasks;
  std::size_t panels, col_tasks;
};

TileSplit split_tiles(std::size_t m, std::size_t n, std::size_t kdim) {
  const std::size_t tasks =
      std::clamp<std::size_t>(m * n * kdim / kParallelFlopThreshold, 1,
                              kMaxTasks);
  // Rows first: a row split repacks only B, which the short-and-deep
  // products never split this way anyway.
  const std::size_t row_blocks = ceil_div(m, kMc);
  const std::size_t row_tasks = std::min(row_blocks, tasks);
  const std::size_t panels = ceil_div(n, kNr);
  return {row_blocks, row_tasks, panels,
          std::min(panels, ceil_div(tasks, row_tasks))};
}

/// Cache-blocked packed GEMM: one pool batch over the shape's tile split,
/// or — when the product runs on one thread — all of C as a single tile
/// range, with no pool call and each B panel packed once. The calling
/// thread allocates every task's packing scratch: buffers allocated and
/// freed on pool workers stay resident in their malloc arenas.
void gemm_blocked(double alpha, ConstMatrixView a, Op opa, ConstMatrixView b,
                  Op opb, MatrixView c, std::size_t threads) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t kdim = op_cols(a, opa);
  const TileSplit split = split_tiles(m, n, kdim);
  const std::size_t tasks = split.row_tasks * split.col_tasks;
  const std::size_t width = threads == 0 ? par::default_threads() : threads;
  if (tasks == 1 || width == 1 || par::ThreadPool::in_parallel_region()) {
    const auto scratch =
        std::make_unique_for_overwrite<double[]>(tile_scratch(m, n, kdim));
    gemm_tiles(alpha, a, opa, b, opb, c, 0, m, 0, n, scratch.get());
    return;
  }
  const auto edge = [](std::size_t units, std::size_t parts, std::size_t i,
                       std::size_t unit, std::size_t limit) {
    return std::min(limit, i * units / parts * unit);
  };
  // Each task's range is at most this big, so its scratch fits the slot.
  const std::size_t slot = tile_scratch(
      ceil_div(split.row_blocks, split.row_tasks) * kMc,
      ceil_div(split.panels, split.col_tasks) * kNr, kdim);
  const auto scratch = std::make_unique_for_overwrite<double[]>(tasks * slot);
  par::parallel_for(
      0, tasks, 1,
      [&](std::size_t t) {
        const std::size_t r = t / split.col_tasks;
        const std::size_t q = t % split.col_tasks;
        gemm_tiles(alpha, a, opa, b, opb, c,
                   edge(split.row_blocks, split.row_tasks, r, kMc, m),
                   edge(split.row_blocks, split.row_tasks, r + 1, kMc, m),
                   edge(split.panels, split.col_tasks, q, kNr, n),
                   edge(split.panels, split.col_tasks, q + 1, kNr, n),
                   scratch.get() + t * slot);
      },
      threads);
}

}  // namespace

double dot(ConstVecView x, ConstVecView y) {
  require(x.size() == y.size(), "dot: length mismatch");
  double s = 0.0;
  if (x.contiguous() && y.contiguous()) {
    const double* xp = x.data();
    const double* yp = y.data();
    for (std::size_t i = 0; i < x.size(); ++i) s += xp[i] * yp[i];
    return s;
  }
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

void axpy(double alpha, ConstVecView x, VecView y) {
  require(x.size() == y.size(), "axpy: length mismatch");
  if (alpha == 0.0) return;
  if (x.contiguous() && y.contiguous()) {
    const double* xp = x.data();
    double* yp = y.data();
    for (std::size_t i = 0; i < x.size(); ++i) yp[i] += alpha * xp[i];
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scal(double alpha, VecView x) {
  if (x.contiguous()) {
    double* xp = x.data();
    for (std::size_t i = 0; i < x.size(); ++i) xp[i] *= alpha;
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) x[i] *= alpha;
}

void rot(VecView x, VecView y, double c, double s) {
  require(x.size() == y.size(), "rot: length mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

void gemv(double alpha, ConstMatrixView a, Op opa, ConstVecView x, double beta,
          VecView y, std::size_t threads) {
  require(x.size() == op_cols(a, opa), "gemv: dimension mismatch");
  require(y.size() == op_rows(a, opa), "gemv: output size mismatch");
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();

  if (opa == Op::None) {
    const auto compute_row = [&](std::size_t r) {
      const double s = dot(a.row(r), x);
      y[r] = beta == 0.0 ? alpha * s : beta * y[r] + alpha * s;
    };
    if (rows * cols >= kParallelFlopThreshold && rows > 1) {
      par::parallel_for(0, rows, row_grain(rows, cols), compute_row, threads);
    } else {
      for (std::size_t r = 0; r < rows; ++r) compute_row(r);
    }
    return;
  }

  // op(A) = A^T: stream A row-major once, each task owning a disjoint block
  // of output columns so accumulation per element is thread-count invariant.
  const auto compute_col_block = [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      y[c] = beta == 0.0 ? 0.0 : beta * y[c];
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const double xa = alpha * x[r];
      if (xa == 0.0) continue;
      const double* ar = a.row_ptr(r);
      for (std::size_t c = c0; c < c1; ++c) y[c] += xa * ar[c];
    }
  };
  constexpr std::size_t kColBlock = 1024;
  if (rows * cols >= kParallelFlopThreshold && cols > kColBlock) {
    const std::size_t blocks = (cols + kColBlock - 1) / kColBlock;
    par::parallel_for(
        0, blocks, 1,
        [&](std::size_t blk) {
          const std::size_t c0 = blk * kColBlock;
          compute_col_block(c0, std::min(c0 + kColBlock, cols));
        },
        threads);
  } else {
    compute_col_block(0, cols);
  }
}

int gemm_dispatch_arch_level() {
#ifdef ASPE_KERNEL_CLONES_ACTIVE
  // Mirror the loader's clone choice: the v4 clone needs the AVX-512
  // x86-64-v4 feature set, the v3 clone AVX2+FMA. Feature probes are listed
  // individually so this compiles on GCC versions without the
  // "x86-64-v4" __builtin_cpu_supports alias.
  static const int level = [] {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512bw")) {
      return 2;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return 1;
    }
    return 0;
  }();
  return level;
#else
  return 0;
#endif
}

void gemm(double alpha, ConstMatrixView a, Op opa, ConstMatrixView b, Op opb,
          double beta, MatrixView c, std::size_t threads) {
  const std::size_t m = op_rows(a, opa);
  const std::size_t n = op_cols(b, opb);
  const std::size_t kdim = op_cols(a, opa);
  require(kdim == op_rows(b, opb), "gemm: inner dimension mismatch");
  require(c.rows() == m && c.cols() == n, "gemm: output shape mismatch");

  scale_output(beta, c);
  if (m == 0 || n == 0 || kdim == 0 || alpha == 0.0) return;

  const std::size_t flops = m * n * kdim;
  if (obs::enabled()) {
    obs::counter_add("linalg.gemm.calls", 1.0);
    // 2 mnk: one multiply + one add per inner-product term.
    obs::counter_add("linalg.gemm.flops", 2.0 * static_cast<double>(flops));
    obs::gauge_set("linalg.gemm.arch_level",
                   static_cast<double>(gemm_dispatch_arch_level()));
  }
  if (flops < kParallelFlopThreshold) {
    gemm_naive(alpha, a, opa, b, opb, c);
  } else {
    gemm_blocked(alpha, a, opa, b, opb, c, threads);
  }
}

void gram(ConstMatrixView a, MatrixView g, std::size_t threads) {
  const std::size_t d = a.rows();
  require(g.rows() == d && g.cols() == d, "gram: output shape mismatch");
  const auto compute_row = [&](std::size_t i) {
    for (std::size_t j = i; j < d; ++j) {
      const double s = dot(a.row(i), a.row(j));
      g(i, j) = s;
      g(j, i) = s;
    }
  };
  const std::size_t flops_per_row = d * a.cols() / 2 + 1;
  if (d > 1 && d * flops_per_row >= kParallelFlopThreshold) {
    par::parallel_for(0, d, row_grain(d, flops_per_row), compute_row, threads);
  } else {
    for (std::size_t i = 0; i < d; ++i) compute_row(i);
  }
}

void transpose_copy(ConstMatrixView a, MatrixView out) {
  require(out.rows() == a.cols() && out.cols() == a.rows(),
          "transpose_copy: output shape mismatch");
  // Square tiles keep one side of the exchange cache-resident.
  constexpr std::size_t kTile = 32;
  for (std::size_t r0 = 0; r0 < a.rows(); r0 += kTile) {
    const std::size_t r1 = std::min(r0 + kTile, a.rows());
    for (std::size_t c0 = 0; c0 < a.cols(); c0 += kTile) {
      const std::size_t c1 = std::min(c0 + kTile, a.cols());
      for (std::size_t r = r0; r < r1; ++r) {
        const double* ar = a.row_ptr(r);
        for (std::size_t c = c0; c < c1; ++c) out(c, r) = ar[c];
      }
    }
  }
}

}  // namespace aspe::linalg
