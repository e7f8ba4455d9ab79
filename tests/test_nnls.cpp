#include "nmf/nnls.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "bit_digest.hpp"
#include "core/snmf_attack.hpp"
#include "linalg/vector_ops.hpp"
#include "rng/rng.hpp"
#include "scheme/split_encryptor.hpp"

namespace aspe::nmf {
namespace {

using linalg::Matrix;

TEST(Nnls, UnconstrainedOptimumAlreadyNonNegative) {
  // A = I, b = (1, 2): x = b exactly.
  const Vec x = nnls(Matrix::identity(2), Vec{1.0, 2.0});
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
}

TEST(Nnls, ClampsNegativeComponent) {
  // A = I, b = (-1, 2): NNLS optimum is (0, 2).
  const Vec x = nnls(Matrix::identity(2), Vec{-1.0, 2.0});
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
}

TEST(Nnls, LawsonHansonReferenceProblem) {
  // Classic reference instance (Lawson & Hanson, Ch. 23 style).
  const Matrix a{{1, 1, 1}, {1, 2, 3}, {1, 3, 6}, {1, 4, 10}};
  const Vec b{0.7, 2.1, 4.1, 6.9};
  const Vec x = nnls(a, b);
  // Verify KKT conditions instead of hard-coded values: x >= 0 and the
  // gradient A^T(Ax - b) is >= 0, ~0 on the support.
  ASSERT_EQ(x.size(), 3u);
  Vec residual = a.apply(x);
  for (std::size_t i = 0; i < b.size(); ++i) residual[i] -= b[i];
  const Vec grad = a.apply_transposed(residual);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_GE(x[j], -1e-12);
    EXPECT_GE(grad[j], -1e-6);
    if (x[j] > 1e-8) EXPECT_NEAR(grad[j], 0.0, 1e-6);
  }
}

TEST(Nnls, RecoversPlantedNonNegativeSolution) {
  rng::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform_int(0, 5));
    const std::size_t rows = n + 4;
    Matrix a(rows, n);
    for (auto& v : a.data()) v = rng.uniform(0.0, 1.0);
    Vec planted(n);
    for (auto& v : planted) v = rng.bernoulli(0.6) ? rng.uniform(0.0, 3.0) : 0.0;
    const Vec b = a.apply(planted);
    const Vec x = nnls(a, b);
    // Consistent system: residual must be ~0 (solution may differ if the
    // planted support is not unique, but the fit must be exact).
    Vec r = a.apply(x);
    for (std::size_t i = 0; i < rows; ++i) r[i] -= b[i];
    EXPECT_LT(linalg::norm(r), 1e-6) << "trial " << trial;
  }
}

TEST(Nnls, GramInterfaceMatchesDirect) {
  rng::Rng rng(9);
  const Matrix a{{1, 2}, {3, 4}, {5, 6}};
  const Vec b{1, -2, 3};
  Matrix g(2, 2, 0.0);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      for (std::size_t r = 0; r < 3; ++r) g(i, j) += a(r, i) * a(r, j);
    }
  }
  const Vec f = a.apply_transposed(b);
  const Vec x1 = nnls(a, b);
  const Vec x2 = nnls_gram(g, f);
  EXPECT_TRUE(linalg::approx_equal(x1, x2, 1e-8));
}

TEST(Nnls, ZeroRhsGivesZero) {
  const Vec x = nnls(Matrix{{1, 2}, {3, 4}}, Vec{0, 0});
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}

TEST(Nnls, DimensionChecks) {
  EXPECT_THROW(nnls(Matrix(2, 2), Vec{1, 2, 3}), InvalidArgument);
  EXPECT_THROW(nnls_gram(Matrix(2, 3), Vec{1, 2}), InvalidArgument);
  EXPECT_THROW(nnls_gram(Matrix(2, 2), Vec{1}), InvalidArgument);
}

/// G = A^T A (full column rank a.s.) and f = A^T b for a fresh random A, b.
void random_gram_problem(std::size_t k, rng::Rng& rng, Matrix& g, Vec& f) {
  const std::size_t rows = k + 4;
  Matrix a(rows, k);
  for (auto& v : a.data()) v = rng.uniform(-1.0, 1.0);
  g = Matrix(k, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t r = 0; r < rows; ++r) g(i, j) += a(r, i) * a(r, j);
    }
  }
  f = a.apply_transposed(rng.uniform_vec(rows, -1.0, 1.0));
}

/// KKT check against the Gram form: x >= 0, grad = Gx - f >= -tol
/// everywhere and ~0 on the support.
void expect_gram_kkt(const Matrix& g, const Vec& f, const Vec& x) {
  const std::size_t k = g.rows();
  for (std::size_t i = 0; i < k; ++i) {
    double grad = -f[i];
    for (std::size_t j = 0; j < k; ++j) grad += g(i, j) * x[j];
    EXPECT_GE(x[i], 0.0);
    EXPECT_GE(grad, -1e-6);
    if (x[i] > 1e-8) EXPECT_NEAR(grad, 0.0, 1e-6);
  }
}

TEST(Nnls, WarmMatchesColdBitwise) {
  // ANLS-shaped sequence: the same column is re-solved against a drifting
  // Gram matrix. The warm path carries its workspace (and previous x)
  // across solves; the cold path starts from scratch every time. Both must
  // return the same doubles bit for bit — warm starting is a pure
  // optimization, never a numerical perturbation.
  rng::Rng rng(21);
  const std::size_t k = 8, rows = k + 4;
  Matrix a(rows, k);
  for (auto& v : a.data()) v = rng.uniform(-1.0, 1.0);
  NnlsWorkspace ws;
  Vec x_warm(k, 0.0);
  for (int t = 0; t < 8; ++t) {
    for (auto& v : a.data()) v += 0.05 * rng.uniform(-1.0, 1.0);
    Matrix g(k, k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t r = 0; r < rows; ++r) g(i, j) += a(r, i) * a(r, j);
      }
    }
    const Vec f = a.apply_transposed(rng.uniform_vec(rows, -1.0, 1.0));
    nnls_gram(g, f, linalg::VecView(x_warm), ws);
    const Vec x_cold = nnls_gram(g, f);
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(x_warm[j], x_cold[j]) << "t=" << t << " j=" << j;  // bitwise
    }
    expect_gram_kkt(g, f, x_warm);
    if (t > 0) EXPECT_TRUE(ws.warm_started()) << t;
  }
}

TEST(Nnls, WarmHitOnUnchangedProblem) {
  rng::Rng rng(23);
  Matrix g;
  Vec f;
  random_gram_problem(10, rng, g, f);
  NnlsWorkspace ws;
  Vec x(10, 0.0);
  nnls_gram(g, f, linalg::VecView(x), ws);
  const Vec first = x;
  const std::size_t support = ws.passive_set().size();
  ASSERT_GT(support, 0u);
  const std::size_t cold_rows = ws.factor_rows_computed();
  nnls_gram(g, f, linalg::VecView(x), ws);
  EXPECT_TRUE(ws.warm_started());
  EXPECT_TRUE(ws.passive_set_reused());
  EXPECT_EQ(ws.outer_iterations(), 1u);  // one KKT check, no moves
  // A warm hit refactors exactly the inherited support once; the cold solve
  // paid for every insertion along the way.
  EXPECT_EQ(ws.factor_rows_computed(), support);
  EXPECT_LE(ws.factor_rows_computed(), cold_rows);
  for (std::size_t j = 0; j < 10; ++j) EXPECT_EQ(x[j], first[j]);
}

TEST(Nnls, UpDowndateStress) {
  // One workspace, many solves with a fixed Gram matrix and churning right-
  // hand sides: variables enter and leave constantly, exercising the
  // partial refactorization (insert at sorted position p, recompute rows
  // >= p; prune, recompute from the lowest removed position). Every answer
  // must satisfy KKT and match the cold solve bitwise.
  rng::Rng rng(27);
  Matrix g;
  Vec f;
  random_gram_problem(12, rng, g, f);
  NnlsWorkspace ws;
  Vec x(12, 0.0);
  for (int t = 0; t < 40; ++t) {
    Vec ft(12);
    for (auto& v : ft) v = rng.uniform(-2.0, 2.0);
    nnls_gram(g, ft, linalg::VecView(x), ws);
    const Vec cold = nnls_gram(g, ft);
    for (std::size_t j = 0; j < 12; ++j) {
      EXPECT_EQ(x[j], cold[j]) << "t=" << t << " j=" << j;
    }
    expect_gram_kkt(g, ft, x);
    // The carried set is exactly the support of the solution, ascending.
    std::size_t prev = 0;
    for (std::size_t idx : ws.passive_set()) {
      EXPECT_TRUE(x[idx] > 0.0);
      if (idx != ws.passive_set().front()) EXPECT_GT(idx, prev);
      prev = idx;
    }
  }
}

TEST(Nnls, WorkspaceSanitizedOnProblemSizeChange) {
  // Reusing a workspace on a different-sized Gram matrix must silently
  // start cold, not read stale indices.
  rng::Rng rng(31);
  Matrix g4;
  Vec f4;
  random_gram_problem(4, rng, g4, f4);
  NnlsWorkspace ws;
  Vec x4(4, 0.0);
  nnls_gram(g4, f4, linalg::VecView(x4), ws);
  Matrix g7;
  Vec f7;
  random_gram_problem(7, rng, g7, f7);
  Vec x7(7, 0.0);
  nnls_gram(g7, f7, linalg::VecView(x7), ws);
  EXPECT_FALSE(ws.warm_started());
  const Vec cold = nnls_gram(g7, f7);
  for (std::size_t j = 0; j < 7; ++j) EXPECT_EQ(x7[j], cold[j]);
}

TEST(Nnls, PaperCellSelectionPinnedBitwise) {
  // One Table III cell (d = 24, m = n = 48, rho = 0.35, L = 3 restarts of
  // 250 ANLS iterations) driven through the restart sweep. ANLS is 72,000
  // warm NNLS solves here, so any change to the Cholesky refresh or the
  // triangular solves that moves a single rounding shows up in the digest.
  // Recorded at commit 3c3e62e; a change meant to keep answers must keep it.
  const std::size_t d = 24;
  const std::size_t m = 2 * d;
  rng::Rng rng(2017);
  scheme::SplitEncryptor enc(d, rng);
  sse::CoaView view;
  for (std::size_t i = 0; i < m; ++i) {
    view.cipher_indexes.push_back(
        enc.encrypt_index(to_real(rng.binary_bernoulli(d, 0.35)), rng));
  }
  const std::size_t q_ones = std::max<std::size_t>(2, d / 4);
  for (std::size_t j = 0; j < m; ++j) {
    view.cipher_trapdoors.push_back(
        enc.encrypt_trapdoor(to_real(rng.binary_with_k_ones(d, q_ones)), rng));
  }
  const Matrix scores = core::build_score_matrix(view.cipher_indexes,
                                                 view.cipher_trapdoors, 1);
  core::SnmfAttackOptions opt;
  opt.rank = d;
  opt.restarts = 3;
  opt.nmf.max_iterations = 250;
  opt.nmf.rel_tol = 1e-7;

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const core::ExecContext ctx{.threads = threads, .seed = 91};
    const core::SnmfSelection sel = core::run_snmf_restarts(
        scores, opt, core::draw_snmf_inits(scores, opt, ctx), ctx);
    pinning::Fnv1a digest;
    for (double v : sel.factorization.w.data()) digest.add(v);
    for (double v : sel.factorization.h.data()) digest.add(v);
    digest.add(sel.factorization.objective);
    digest.add(std::uint64_t{sel.factorization.iterations});
    EXPECT_EQ(digest.h, 0xe2a47c43f0d88149ull) << "threads " << threads << " digest 0x"
                                << std::hex << digest.h;
  }
}

}  // namespace
}  // namespace aspe::nmf
