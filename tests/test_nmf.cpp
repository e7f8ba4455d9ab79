#include "nmf/nmf.hpp"

#include <gtest/gtest.h>

#include "rng/rng.hpp"

namespace aspe::nmf {
namespace {

using linalg::Matrix;

/// Build R = W^T H from planted binary factors.
Matrix product(const Matrix& w, const Matrix& h) {
  return w.transpose() * h;
}

Matrix random_binary(std::size_t rows, std::size_t cols, double density,
                     rng::Rng& rng) {
  Matrix m(rows, cols);
  for (auto& x : m.data()) x = rng.bernoulli(density) ? 1.0 : 0.0;
  return m;
}

TEST(SparseNmf, FitErrorSmallOnExactLowRankInput) {
  rng::Rng rng(31);
  const std::size_t d = 6, m = 30, n = 30;
  const Matrix w = random_binary(d, m, 0.4, rng);
  const Matrix h = random_binary(d, n, 0.4, rng);
  const Matrix r = product(w, h);

  SparseNmfOptions opt;
  opt.eta = 1e-3;
  opt.lambda = 1e-3;
  opt.max_iterations = 400;
  opt.rel_tol = 1e-9;

  // Best of several restarts, as Algorithm 3 does.
  double best = 1e300;
  for (int l = 0; l < 4; ++l) {
    const NmfResult res = sparse_nmf(r, d, opt, rng);
    best = std::min(best, res.fit_error);
  }
  EXPECT_LT(best, 0.12 * r.frobenius_norm() + 1e-9);
}

TEST(SparseNmf, FactorsAreNonNegative) {
  rng::Rng rng(33);
  const Matrix r = product(random_binary(4, 12, 0.5, rng),
                           random_binary(4, 15, 0.5, rng));
  SparseNmfOptions opt;
  opt.max_iterations = 50;
  const NmfResult res = sparse_nmf(r, 4, opt, rng);
  for (auto x : res.w.data()) EXPECT_GE(x, 0.0);
  for (auto x : res.h.data()) EXPECT_GE(x, 0.0);
  EXPECT_EQ(res.w.rows(), 4u);
  EXPECT_EQ(res.w.cols(), 12u);
  EXPECT_EQ(res.h.rows(), 4u);
  EXPECT_EQ(res.h.cols(), 15u);
}

TEST(SparseNmf, ObjectiveDecreasesAcrossIterationBudgets) {
  rng::Rng base(35);
  const Matrix r = product(random_binary(5, 20, 0.4, base),
                           random_binary(5, 20, 0.4, base));
  SparseNmfOptions opt;
  opt.rel_tol = 0.0;  // force the full budget
  double prev = 1e300;
  for (std::size_t iters : {1u, 5u, 25u, 100u}) {
    rng::Rng rng(35);  // same init each time
    opt.max_iterations = iters;
    const NmfResult res = sparse_nmf(r, 5, opt, rng);
    EXPECT_LE(res.objective, prev + 1e-6) << "iters=" << iters;
    prev = res.objective;
  }
}

TEST(SparseNmf, LambdaEncouragesSparserH) {
  rng::Rng base(37);
  const Matrix w = random_binary(6, 40, 0.35, base);
  const Matrix h = random_binary(6, 40, 0.15, base);
  const Matrix r = product(w, h);

  auto h_mass = [&](double lambda) {
    rng::Rng rng(37);
    SparseNmfOptions opt;
    opt.lambda = lambda;
    opt.eta = 1e-3;
    opt.max_iterations = 120;
    const NmfResult res = sparse_nmf(r, 6, opt, rng);
    double l1 = 0.0;
    for (auto x : res.h.data()) l1 += x;
    return l1;
  };
  EXPECT_LT(h_mass(0.5), h_mass(1e-6) + 1e-9);
}

TEST(SparseNmf, NndsvdInitializationIsDeterministicAndAccurate) {
  rng::Rng base(51);
  const Matrix w = random_binary(6, 30, 0.4, base);
  const Matrix h = random_binary(6, 30, 0.35, base);
  const Matrix r = product(w, h);

  SparseNmfOptions opt;
  opt.init = Initialization::Nndsvd;
  opt.max_iterations = 200;
  opt.rel_tol = 1e-9;
  rng::Rng rng1(1), rng2(2);
  const NmfResult a = sparse_nmf(r, 6, opt, rng1);
  const NmfResult b = sparse_nmf(r, 6, opt, rng2);
  // Deterministic: independent of the rng seed.
  EXPECT_TRUE(a.w.approx_equal(b.w, 1e-12));
  EXPECT_LT(a.fit_error, 0.15 * r.frobenius_norm() + 1e-9);
}

TEST(SparseNmf, NndsvdConvergesAtLeastAsFastAsRandomOnEasyInput) {
  rng::Rng base(52);
  const Matrix r = product(random_binary(5, 25, 0.4, base),
                           random_binary(5, 25, 0.4, base));
  SparseNmfOptions random_opt;
  random_opt.max_iterations = 15;
  random_opt.rel_tol = 0.0;
  SparseNmfOptions svd_opt = random_opt;
  svd_opt.init = Initialization::Nndsvd;
  rng::Rng rng(53);
  const double err_random = sparse_nmf(r, 5, random_opt, rng).fit_error;
  const double err_svd = sparse_nmf(r, 5, svd_opt, rng).fit_error;
  EXPECT_LE(err_svd, err_random + 1e-6);
}

TEST(SparseNmf, NndsvdHandlesWideMatrices) {
  // m < n exercises the internal transpose path.
  rng::Rng base(54);
  const Matrix w = random_binary(4, 8, 0.5, base);
  const Matrix h = random_binary(4, 20, 0.4, base);
  const Matrix r = product(w, h);  // 8 x 20
  SparseNmfOptions opt;
  opt.init = Initialization::Nndsvd;
  opt.max_iterations = 150;
  rng::Rng rng(55);
  const NmfResult res = sparse_nmf(r, 4, opt, rng);
  for (auto x : res.w.data()) EXPECT_GE(x, 0.0);
  EXPECT_LT(res.fit_error, 0.25 * r.frobenius_norm() + 1e-9);
}

TEST(SparseNmf, RejectsBadInput) {
  rng::Rng rng(1);
  SparseNmfOptions opt;
  EXPECT_THROW(sparse_nmf(Matrix(0, 0), 3, opt, rng), InvalidArgument);
  EXPECT_THROW(sparse_nmf(Matrix(2, 2, 1.0), 0, opt, rng), InvalidArgument);
  Matrix neg(2, 2, 1.0);
  neg(0, 0) = -1.0;
  EXPECT_THROW(sparse_nmf(neg, 2, opt, rng), InvalidArgument);
}

TEST(BalanceRows, PreservesProductAndEquilibratesScale) {
  rng::Rng rng(41);
  Matrix w(3, 10), h(3, 12);
  for (auto& x : w.data()) x = rng.uniform(0.0, 1.0);
  for (auto& x : h.data()) x = rng.uniform(0.0, 1.0);
  // Unbalance: scale row 1 of w up, row 1 of h down.
  for (std::size_t i = 0; i < 10; ++i) w(1, i) *= 100.0;
  for (std::size_t j = 0; j < 12; ++j) h(1, j) /= 100.0;
  const Matrix before = w.transpose() * h;
  balance_rows(w, h);
  const Matrix after = w.transpose() * h;
  EXPECT_TRUE(after.approx_equal(before, 1e-9));
  // Row peaks now match.
  for (std::size_t k = 0; k < 3; ++k) {
    double wmax = 0.0, hmax = 0.0;
    for (std::size_t i = 0; i < 10; ++i) wmax = std::max(wmax, w(k, i));
    for (std::size_t j = 0; j < 12; ++j) hmax = std::max(hmax, h(k, j));
    EXPECT_NEAR(wmax, hmax, 1e-9 * std::max(1.0, wmax));
  }
}

TEST(BalanceRows, ZeroRowLeftUntouched) {
  Matrix w(2, 3, 0.0), h(2, 3, 1.0);
  w(1, 0) = 2.0;
  EXPECT_NO_THROW(balance_rows(w, h));
  EXPECT_DOUBLE_EQ(w(0, 0), 0.0);
}

TEST(ToBinary, ThresholdSemantics) {
  const Matrix m{{0.0, 0.49, 0.5}, {0.51, 1.7, -0.1}};
  const Matrix b = to_binary(m, 0.5);
  EXPECT_DOUBLE_EQ(b(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(b(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(b(0, 2), 1.0);  // >= theta -> 1
  EXPECT_DOUBLE_EQ(b(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(b(1, 2), 0.0);
}

TEST(SparseNmf, BinaryRecoveryAfterThresholdOnEasyInstance) {
  // End-to-end property at small scale: planted binary factors with enough
  // observations are recovered (up to latent permutation) by best-of-L +
  // balance + threshold. Checked via the reconstruction fit instead of a
  // direct factor comparison to stay permutation-agnostic.
  rng::Rng rng(43);
  const std::size_t d = 5, m = 40, n = 40;
  const Matrix w = random_binary(d, m, 0.35, rng);
  const Matrix h = random_binary(d, n, 0.3, rng);
  const Matrix r = product(w, h);

  SparseNmfOptions opt;
  opt.eta = 1e-2;
  opt.lambda = 1e-2;
  opt.max_iterations = 300;
  opt.rel_tol = 1e-8;
  NmfResult best;
  bool have = false;
  for (int l = 0; l < 5; ++l) {
    NmfResult res = sparse_nmf(r, d, opt, rng);
    if (!have || res.objective < best.objective) {
      best = std::move(res);
      have = true;
    }
  }
  balance_rows(best.w, best.h);
  const Matrix wb = to_binary(best.w, 0.5);
  const Matrix hb = to_binary(best.h, 0.5);
  const Matrix rb = wb.transpose() * hb;
  // Binarized reconstruction should reproduce most of R exactly.
  std::size_t matches = 0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      matches += std::abs(rb(i, j) - r(i, j)) < 0.5;
    }
  }
  EXPECT_GT(static_cast<double>(matches) / static_cast<double>(m * n), 0.8);
}

}  // namespace
}  // namespace aspe::nmf
