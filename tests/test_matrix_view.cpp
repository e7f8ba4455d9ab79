#include "linalg/matrix_view.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "bit_digest.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace aspe::linalg {
namespace {

Matrix random_rect(std::size_t rows, std::size_t cols, rng::Rng& rng) {
  Matrix m(rows, cols);
  for (auto& x : m.data()) x = rng.uniform(-1.0, 1.0);
  return m;
}

/// Reference C = alpha * op(A) op(B) + beta * C, plain triple loop through
/// op_at — the oracle every gemm path must match.
Matrix reference_gemm(double alpha, const Matrix& a, Op opa, const Matrix& b,
                      Op opb, double beta, const Matrix& c_in) {
  const std::size_t m = op_rows(a.cview(), opa);
  const std::size_t n = op_cols(b.cview(), opb);
  const std::size_t k = op_cols(a.cview(), opa);
  Matrix c = c_in;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        s += op_at(a.cview(), opa, i, p) * op_at(b.cview(), opb, p, j);
      }
      c(i, j) = alpha * s + beta * c_in(i, j);
    }
  }
  return c;
}

double max_abs_diff(const Matrix& x, const Matrix& y) {
  double d = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      d = std::max(d, std::abs(x(i, j) - y(i, j)));
    }
  }
  return d;
}

// ------------------------------------------------------------------ views

TEST(VecView, SubvecOffsetAndStride) {
  Vec v{0, 1, 2, 3, 4, 5, 6, 7};
  const ConstVecView whole(v);
  const ConstVecView mid = whole.subvec(2, 4);
  ASSERT_EQ(mid.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(mid[i], 2.0 + i);
  EXPECT_THROW(whole.subvec(5, 4), InvalidArgument);

  // Strided view: every second element.
  const ConstVecView evens(v.data(), 4, 2);
  EXPECT_FALSE(evens.contiguous());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(evens[i], 2.0 * i);
  // subvec of a strided view keeps the stride.
  const ConstVecView tail = evens.subvec(1, 3);
  EXPECT_DOUBLE_EQ(tail[0], 2.0);
  EXPECT_DOUBLE_EQ(tail[2], 6.0);
  EXPECT_EQ(tail.stride(), 2u);
}

TEST(VecView, ColumnViewWritesThrough) {
  Matrix m(3, 4, 0.0);
  VecView col = m.col_view(2);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.stride(), m.cols());
  for (std::size_t i = 0; i < 3; ++i) col[i] = static_cast<double>(i) + 1.0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m(i, 2), static_cast<double>(i) + 1.0);
    for (std::size_t j = 0; j < 4; ++j) {
      if (j != 2) EXPECT_DOUBLE_EQ(m(i, j), 0.0);
    }
  }
}

TEST(MatrixView, BlockOffsetsAndWriteThrough) {
  Matrix m(5, 6, 0.0);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 6; ++j) m(i, j) = 10.0 * i + j;
  }
  const ConstMatrixView blk = m.cview().block(1, 2, 3, 3);
  EXPECT_EQ(blk.rows(), 3u);
  EXPECT_EQ(blk.cols(), 3u);
  EXPECT_EQ(blk.row_stride(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(blk(i, j), m(i + 1, j + 2));
    }
  }
  // Row/col of a block keep the parent stride.
  EXPECT_DOUBLE_EQ(blk.row(2)[1], m(3, 3));
  EXPECT_DOUBLE_EQ(blk.col(0)[2], m(3, 2));

  // Writing through a mutable block touches only the block.
  m.view().block(0, 0, 2, 2).row(1)[1] = -7.0;
  EXPECT_DOUBLE_EQ(m(1, 1), -7.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 12.0);
  EXPECT_THROW(m.cview().block(3, 0, 3, 1), InvalidArgument);
}

// ------------------------------------------------------------------- gemm

struct GemmShape {
  std::size_t m, k, n;
};

// Small shapes drive the naive path; the larger ones clear the flop
// threshold and run the blocked packed kernel (2*m*k*n >= 2^18), including
// ragged edges that don't divide the 4x8 micro-tile.
const GemmShape kShapes[] = {
    {1, 1, 1}, {1, 7, 1},  {1, 3, 9},   {9, 3, 1},   {2, 5, 3},
    {8, 8, 8}, {13, 1, 4}, {64, 64, 64}, {70, 65, 90}, {53, 128, 61},
};

TEST(Gemm, AllOpCombosMatchReference) {
  rng::Rng rng(101);
  for (const auto& shape : kShapes) {
    for (const Op opa : {Op::None, Op::Transpose}) {
      for (const Op opb : {Op::None, Op::Transpose}) {
        const Matrix a = opa == Op::None ? random_rect(shape.m, shape.k, rng)
                                         : random_rect(shape.k, shape.m, rng);
        const Matrix b = opb == Op::None ? random_rect(shape.k, shape.n, rng)
                                         : random_rect(shape.n, shape.k, rng);
        Matrix c = random_rect(shape.m, shape.n, rng);
        const Matrix expected =
            reference_gemm(0.75, a, opa, b, opb, 0.25, c);
        gemm(0.75, a.cview(), opa, b.cview(), opb, 0.25, c.view());
        EXPECT_LE(max_abs_diff(c, expected),
                  1e-12 * static_cast<double>(shape.k + 1))
            << "shape " << shape.m << "x" << shape.k << "x" << shape.n
            << " opa=" << (opa == Op::Transpose) << " opb="
            << (opb == Op::Transpose);
      }
    }
  }
}

TEST(Gemm, DeepKBlockWithRaggedColumns) {
  // Regression: the packed-B buffer must round the column block up to a
  // whole NR panel. With the inner dimension filling a full KC block and a
  // column count that is not a multiple of NR, an exactly-sized buffer
  // overflows by (padded - n) * kb doubles.
  rng::Rng rng(113);
  const std::size_t m = 24, k = 300, n = 300;
  const Matrix a = random_rect(m, k, rng);
  const Matrix b = random_rect(n, k, rng);  // consumed transposed
  Matrix c(m, n, 0.0);
  const Matrix expected =
      reference_gemm(1.0, a, Op::None, b, Op::Transpose, 0.0, c);
  gemm(1.0, a.cview(), Op::None, b.cview(), Op::Transpose, 0.0, c.view());
  EXPECT_LE(max_abs_diff(c, expected), 1e-12 * static_cast<double>(k + 1));
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  rng::Rng rng(7);
  const Matrix a = random_rect(6, 5, rng);
  const Matrix b = random_rect(5, 4, rng);
  Matrix c(6, 4, std::numeric_limits<double>::quiet_NaN());
  gemm(1.0, a.cview(), Op::None, b.cview(), Op::None, 0.0, c.view());
  const Matrix expected =
      reference_gemm(1.0, a, Op::None, b, Op::None, 0.0, Matrix(6, 4, 0.0));
  EXPECT_LE(max_abs_diff(c, expected), 1e-12);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(
      gemm(1.0, a.cview(), Op::None, b.cview(), Op::None, 0.0, c.view()),
      InvalidArgument);
  Matrix b2(4, 2), c2(2, 2);
  EXPECT_THROW(
      gemm(1.0, a.cview(), Op::None, b2.cview(), Op::None, 0.0, c2.view()),
      InvalidArgument);
}

TEST(Gemm, SubviewInputsAndOffsetOutput) {
  rng::Rng rng(21);
  // Operands and result all live inside larger parents: strides != cols.
  Matrix pa = random_rect(80, 90, rng);
  Matrix pb = random_rect(90, 80, rng);
  Matrix pc = random_rect(80, 70, rng);
  const Matrix pc_before = pc;
  const std::size_t m = 66, k = 71, n = 59;  // blocked path, ragged tiles
  const ConstMatrixView a = pa.cview().block(3, 5, m, k);
  const ConstMatrixView b = pb.cview().block(7, 2, k, n);
  const MatrixView c = pc.view().block(9, 4, m, n);

  // Dense copies of the sub-blocks give the reference answer.
  Matrix ad(m, k), bd(k, n), cd(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j) ad(i, j) = a(i, j);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < n; ++j) bd(i, j) = b(i, j);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) cd(i, j) = c(i, j);
  const Matrix expected =
      reference_gemm(1.5, ad, Op::None, bd, Op::None, -0.5, cd);

  gemm(1.5, a, Op::None, b, Op::None, -0.5, c);

  double diff = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      diff = std::max(diff, std::abs(c(i, j) - expected(i, j)));
    }
  }
  EXPECT_LE(diff, 1e-10);
  // Everything outside the output block is untouched.
  for (std::size_t i = 0; i < pc.rows(); ++i) {
    for (std::size_t j = 0; j < pc.cols(); ++j) {
      if (i >= 9 && i < 9 + m && j >= 4 && j < 4 + n) continue;
      EXPECT_EQ(pc(i, j), pc_before(i, j)) << "border clobbered at " << i
                                           << "," << j;
    }
  }
}

TEST(Gemm, SharedInputAliasing) {
  // Inputs may alias each other: C = A A^T with both operands the same
  // storage (the Gram shape), on both the naive and blocked paths.
  rng::Rng rng(31);
  for (const std::size_t n : {9u, 72u}) {
    const Matrix a = random_rect(n, n + 3, rng);
    Matrix c(n, n);
    gemm(1.0, a.cview(), Op::None, a.cview(), Op::Transpose, 0.0, c.view());
    const Matrix expected = reference_gemm(1.0, a, Op::None, a, Op::Transpose,
                                           0.0, Matrix(n, n, 0.0));
    EXPECT_LE(max_abs_diff(c, expected), 1e-11);
    // The result is exactly symmetric up to summation order.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(c(i, j), c(j, i), 1e-11);
      }
    }
  }
}

TEST(Gemm, DeterministicAcrossThreadCounts) {
  rng::Rng rng(41);
  const Matrix a = random_rect(97, 83, rng);
  const Matrix b = random_rect(83, 101, rng);  // blocked path
  Matrix c1(97, 101), c4(97, 101), c8(97, 101);
  gemm(1.0, a.cview(), Op::None, b.cview(), Op::None, 0.0, c1.view(), 1);
  gemm(1.0, a.cview(), Op::None, b.cview(), Op::None, 0.0, c4.view(), 4);
  gemm(1.0, a.cview(), Op::None, b.cview(), Op::None, 0.0, c8.view(), 8);
  // Bit-identical, not approximately equal.
  EXPECT_EQ(std::memcmp(c1.data().data(), c4.data().data(),
                        c1.data().size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(c1.data().data(), c8.data().data(),
                        c1.data().size() * sizeof(double)),
            0);
}

TEST(Gemm, ShortOutputPinnedBitwise) {
  // The SNMF pipeline's product shapes, scaled down, with N and K edges that
  // are not multiples of NR = 8 or KC = 256: ANLS's F = W R and H R^T, the
  // range finder's Q^T A, the QR trailing update's V^T C and its
  // C -= V W into a sub-block, and a wide product past NC = 2048 columns.
  // Digests recorded at commit 3eb8847; a change meant to keep answers must
  // keep them at every thread count.
  struct Case {
    const char* name;
    std::size_t a_rows, a_cols;
    Op opa;
    std::size_t b_rows, b_cols;
    Op opb;
    double alpha, beta;
    std::uint64_t baseline, avx512;
  };
  const Case cases[] = {
      {"w_r", 12, 1030, Op::None, 1030, 203, Op::None, 1.0, 0.0,
       0xb4d7da7d438b336bull, 0x3d3974407b2398a6ull},
      {"h_rt", 12, 203, Op::None, 1030, 203, Op::Transpose, 1.0, 0.0,
       0xb38d93bf4e3a7c2cull, 0x1e7bf136b1c7a260ull},
      {"qt_a", 1030, 40, Op::Transpose, 1030, 203, Op::None, 1.0, 0.0,
       0x1589a0fc91cea7b3ull, 0x12e9ff7a5bb3512ull},
      {"vt_c", 1030, 32, Op::Transpose, 1030, 13, Op::None, 1.0, 0.0,
       0x8e61277371bcaeacull, 0x5b1ba488df7ab186ull},
      {"c_minus_vw", 1030, 32, Op::None, 32, 13, Op::None, -1.0, 1.0,
       0x1761e7a9c03734b9ull, 0xb5e517c3813da5bull},
      {"wide", 12, 300, Op::None, 300, 2100, Op::None, 0.5, 0.0,
       0x4f953742925ed745ull, 0x4e41d1dff0545d9bull},
  };
  for (const Case& cs : cases) {
    rng::Rng rng(2017);
    const Matrix a = random_rect(cs.a_rows, cs.a_cols, rng);
    const Matrix b = random_rect(cs.b_rows, cs.b_cols, rng);
    const std::size_t m = op_rows(a.cview(), cs.opa);
    const std::size_t n = op_cols(b.cview(), cs.opb);
    // The output is a sub-block of a larger matrix, as in the QR update.
    const Matrix c0 = random_rect(m + 3, n + 5, rng);
    std::optional<std::uint64_t> first;
    for (const std::size_t threads : {1, 2, 4, 8}) {
      Matrix c = c0;
      gemm(cs.alpha, a.cview(), cs.opa, b.cview(), cs.opb, cs.beta,
           c.view().block(2, 3, m, n), threads);
      pinning::Fnv1a digest;
      digest.add(c);
      if (!first) first = digest.h;
      EXPECT_EQ(digest.h, *first) << cs.name << " threads " << threads;
      if (const auto pin = pinning::pinned_for_gemm_clone(cs.baseline,
                                                          cs.avx512)) {
        EXPECT_EQ(digest.h, *pin)
            << cs.name << " threads " << threads << " digest 0x" << std::hex
            << digest.h;
      }
    }
  }
}

// ------------------------------------------------------------- gemv / gram

TEST(Gemv, MatchesApplyBothOps) {
  rng::Rng rng(51);
  const Matrix a = random_rect(23, 17, rng);
  const Vec x = rng.uniform_vec(17, -1.0, 1.0);
  const Vec xt = rng.uniform_vec(23, -1.0, 1.0);

  Vec y(23, 0.0);
  gemv(1.0, a.cview(), Op::None, ConstVecView(x), 0.0, VecView(y));
  const Vec y_ref = a.apply(x);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_ref[i]);

  Vec z(17, 0.0);
  gemv(1.0, a.cview(), Op::Transpose, ConstVecView(xt), 0.0, VecView(z));
  const Vec z_ref = a.apply_transposed(xt);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_EQ(z[i], z_ref[i]);
}

TEST(Gemv, StridedOperandsAndAccumulate) {
  rng::Rng rng(61);
  const Matrix a = random_rect(12, 9, rng);
  Matrix xs = random_rect(9, 3, rng);   // x = column 1
  Matrix ys = random_rect(12, 2, rng);  // y = column 0, accumulated into
  const Matrix ys_before = ys;
  gemv(2.0, a.cview(), Op::None, xs.cview().col(1), 3.0, ys.view().col(0));
  for (std::size_t i = 0; i < 12; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 9; ++j) s += a(i, j) * xs(j, 1);
    EXPECT_NEAR(ys(i, 0), 3.0 * ys_before(i, 0) + 2.0 * s, 1e-12);
    EXPECT_EQ(ys(i, 1), ys_before(i, 1));  // other column untouched
  }
}

TEST(Gram, MatchesExplicitProduct) {
  rng::Rng rng(71);
  for (const std::size_t d : {5u, 40u}) {
    const Matrix a = random_rect(d, 3 * d + 1, rng);
    Matrix g(d, d);
    gram(a.cview(), g.view());
    const Matrix expected = reference_gemm(1.0, a, Op::None, a, Op::Transpose,
                                           0.0, Matrix(d, d, 0.0));
    EXPECT_LE(max_abs_diff(g, expected), 1e-11);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) EXPECT_EQ(g(i, j), g(j, i));
    }
  }
}

// --------------------------------------------------- level-1 + transpose

TEST(Level1, DotAxpyScalRotOnStridedViews) {
  Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}};
  // dot of two strided columns.
  EXPECT_DOUBLE_EQ(dot(m.col_view(0), m.col_view(2)),
                   1 * 3 + 4 * 6 + 7 * 9 + 10 * 12);
  // axpy column into column.
  axpy(2.0, m.col_view(0), m.col_view(1));
  EXPECT_DOUBLE_EQ(m(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m(3, 1), 31.0);
  // scal on a row view.
  scal(0.5, m.row_view(1));
  EXPECT_DOUBLE_EQ(m(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 3.0);
  // rot: c=0, s=1 maps (x, y) -> (-y, x).
  Vec x{1.0, 2.0};
  Vec y{3.0, 4.0};
  rot(VecView(x), VecView(y), 0.0, 1.0);
  EXPECT_DOUBLE_EQ(x[0], -3.0);
  EXPECT_DOUBLE_EQ(x[1], -4.0);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
}

TEST(TransposeCopy, MatchesMatrixTranspose) {
  rng::Rng rng(81);
  const Matrix a = random_rect(37, 53, rng);
  Matrix t(53, 37);
  transpose_copy(a.cview(), t.view());
  const Matrix expected = a.transpose();
  EXPECT_EQ(std::memcmp(t.data().data(), expected.data().data(),
                        t.data().size() * sizeof(double)),
            0);
  // Into an offset block of a larger parent.
  Matrix parent(60, 60, 0.0);
  transpose_copy(a.cview(), parent.view().block(2, 3, 53, 37));
  for (std::size_t i = 0; i < 53; ++i) {
    for (std::size_t j = 0; j < 37; ++j) {
      EXPECT_EQ(parent(i + 2, j + 3), a(j, i));
    }
  }
  EXPECT_DOUBLE_EQ(parent(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(parent(59, 59), 0.0);
}

}  // namespace
}  // namespace aspe::linalg
