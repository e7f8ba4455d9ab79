#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "bit_digest.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/vector_ops.hpp"
#include "rng/rng.hpp"

namespace aspe::linalg {
namespace {

TEST(Qr, ReconstructsSquareMatrix) {
  rng::Rng rng(1);
  const Matrix a = random_matrix(6, rng);
  const QrDecomposition qr(a);
  // Verify via solve: QR x = b must equal A x = b.
  const Vec b = rng.uniform_vec(6, -1.0, 1.0);
  const Vec x_qr = qr.solve(b);
  const Vec x_lu = solve(a, b);
  EXPECT_TRUE(approx_equal(x_qr, x_lu, 1e-8));
}

TEST(Qr, RIsUpperTriangular) {
  rng::Rng rng(2);
  Matrix a(8, 4);
  for (auto& x : a.data()) x = rng.uniform(-2.0, 2.0);
  const Matrix r = QrDecomposition(a).r();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
  }
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
  rng::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a(12, 5);
    for (auto& x : a.data()) x = rng.uniform(-1.0, 1.0);
    const Vec b = rng.uniform_vec(12, -1.0, 1.0);
    const Vec x_qr = solve_least_squares_qr(a, b);
    const Vec x_ne = solve_least_squares(a, b);
    EXPECT_TRUE(approx_equal(x_qr, x_ne, 1e-6)) << "trial " << trial;
  }
}

TEST(Qr, ExactOnConsistentOverdeterminedSystem) {
  rng::Rng rng(4);
  Matrix a(20, 6);
  for (auto& x : a.data()) x = rng.uniform(-1.0, 1.0);
  const Vec planted = rng.uniform_vec(6, -2.0, 2.0);
  const Vec b = a.apply(planted);
  EXPECT_TRUE(approx_equal(solve_least_squares_qr(a, b), planted, 1e-9));
}

TEST(Qr, HandlesIllConditionedBetterThanNormalEquations) {
  // Vandermonde-ish matrix: condition^2 overwhelms the normal equations but
  // QR still produces a small residual.
  const std::size_t m = 12, n = 6;
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    double t = static_cast<double>(i) / (m - 1);
    double p = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = p;
      p *= t;
    }
  }
  rng::Rng rng(5);
  const Vec planted = rng.uniform_vec(n, -1.0, 1.0);
  const Vec b = a.apply(planted);
  const Vec x = solve_least_squares_qr(a, b);
  Vec residual = a.apply(x);
  for (std::size_t i = 0; i < m; ++i) residual[i] -= b[i];
  EXPECT_LT(norm(residual), 1e-8);
}

TEST(Qr, RankDetection) {
  Matrix full{{1, 0}, {0, 1}, {1, 1}};
  EXPECT_EQ(QrDecomposition(full).rank(), 2u);
  Matrix deficient{{1, 2}, {2, 4}, {3, 6}};
  EXPECT_EQ(QrDecomposition(deficient).rank(), 1u);
  Matrix zero(3, 2, 0.0);
  EXPECT_EQ(QrDecomposition(zero).rank(), 0u);
}

TEST(Qr, SolveThrowsOnRankDeficient) {
  const Matrix deficient{{1, 2}, {2, 4}, {3, 6}};
  const QrDecomposition qr(deficient);
  EXPECT_THROW(qr.solve(Vec{1, 2, 3}), NumericalError);
}

TEST(Qr, ApplyQtPreservesNorm) {
  rng::Rng rng(6);
  Matrix a(10, 10);
  for (auto& x : a.data()) x = rng.uniform(-1.0, 1.0);
  const QrDecomposition qr(a);
  const Vec b = rng.uniform_vec(10, -1.0, 1.0);
  // Q orthogonal => ||Q^T b|| = ||b|| (square case: full Q).
  EXPECT_NEAR(norm(qr.apply_qt(b)), norm(b), 1e-9);
}

TEST(Qr, Validation) {
  EXPECT_THROW(QrDecomposition(Matrix(2, 3)), InvalidArgument);  // wide
  EXPECT_THROW(QrDecomposition(Matrix(0, 0)), InvalidArgument);
  const QrDecomposition qr(Matrix::identity(3));
  EXPECT_THROW(qr.solve(Vec{1, 2}), InvalidArgument);
}

TEST(Qr, BlockedAgreesWithSinglePanel) {
  // block >= n runs the classic unblocked arithmetic; a small block goes
  // through the compact-WY trailing update. Same R (Householder signs are
  // determined by the per-column reflectors, which the panel path shares),
  // tiny rounding differences at most.
  rng::Rng rng(7);
  Matrix a(40, 20);
  for (auto& x : a.data()) x = rng.uniform(-1.0, 1.0);
  QrOptions wide_panel;
  wide_panel.block = 64;
  QrOptions narrow_panel;
  narrow_panel.block = 5;
  const QrDecomposition ref(a, wide_panel);
  const QrDecomposition blocked(a, narrow_panel);
  const Matrix r_ref = ref.r();
  const Matrix r_blk = blocked.r();
  EXPECT_TRUE(r_blk.approx_equal(r_ref, 1e-10));
  const Vec b = rng.uniform_vec(40, -1.0, 1.0);
  EXPECT_TRUE(approx_equal(ref.solve(b), blocked.solve(b), 1e-9));
}

TEST(Qr, ThinQIsOrthonormalAndReconstructs) {
  rng::Rng rng(8);
  for (std::size_t block : {std::size_t{4}, std::size_t{32}}) {
    Matrix a(30, 12);
    for (auto& x : a.data()) x = rng.uniform(-1.0, 1.0);
    QrOptions options;
    options.block = block;
    const QrDecomposition qr(a, options);
    const Matrix q = qr.thin_q();
    ASSERT_EQ(q.rows(), 30u);
    ASSERT_EQ(q.cols(), 12u);
    const Matrix gram = q.transpose() * q;
    EXPECT_TRUE(gram.approx_equal(Matrix::identity(12), 1e-10))
        << "block " << block;
    EXPECT_TRUE((q * qr.r()).approx_equal(a, 1e-9)) << "block " << block;
  }
}

TEST(Qr, ThinQConsistentWithApplyQt) {
  // thin_q's columns are the first n columns of the full Q, so Q_thin^T b
  // must equal the leading n entries of apply_qt(b).
  rng::Rng rng(9);
  Matrix a(18, 7);
  for (auto& x : a.data()) x = rng.uniform(-1.0, 1.0);
  const QrDecomposition qr(a);
  const Vec b = rng.uniform_vec(18, -1.0, 1.0);
  const Vec qtb = qr.apply_qt(b);
  const Matrix q = qr.thin_q();
  for (std::size_t j = 0; j < 7; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < 18; ++i) acc += q(i, j) * b[i];
    EXPECT_NEAR(acc, qtb[j], 1e-10) << j;
  }
}

TEST(Qr, TallSkinnyThinQPinnedBitwise) {
  // The range finder's shape (8000 x 40, one 32-column panel, its trailing
  // update and an 8-column panel) and svc-open's 1000 x 40. R, thin_q and
  // apply_qt (which reads the stored Householder vectors and taus) are
  // digested together. Recorded at commit 3eb8847; a change meant to keep
  // answers must keep them at every thread count.
  struct Case {
    std::size_t rows;
    std::uint64_t baseline, avx512;
  };
  const Case cases[] = {{8000, 0x045268f30b04b6a6ull, 0x2e75c89f2cd3d6e5ull},
                        {1000, 0xb004a61985a6a806ull, 0x6ba537e2bfe94083ull}};
  for (const Case& cs : cases) {
    rng::Rng rng(cs.rows);
    Matrix a(cs.rows, 40);
    for (auto& x : a.data()) x = rng.uniform(-1.0, 1.0);
    const Vec b = rng.uniform_vec(cs.rows, -1.0, 1.0);
    std::optional<std::uint64_t> first;
    for (const std::size_t threads : {1, 4}) {
      QrOptions options;
      options.threads = threads;
      const QrDecomposition qr(a, options);
      pinning::Fnv1a digest;
      digest.add(qr.r());
      digest.add(qr.thin_q());
      for (double v : qr.apply_qt(b)) digest.add(v);
      if (!first) first = digest.h;
      EXPECT_EQ(digest.h, *first) << cs.rows << " rows, threads " << threads;
      if (const auto pin =
              pinning::pinned_for_gemm_clone(cs.baseline, cs.avx512)) {
        EXPECT_EQ(digest.h, *pin) << cs.rows << " rows, threads " << threads
                                  << " digest 0x" << std::hex << digest.h;
      }
    }
  }
}

}  // namespace
}  // namespace aspe::linalg
