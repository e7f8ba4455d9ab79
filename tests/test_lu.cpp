#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "linalg/random_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "rng/rng.hpp"

namespace aspe::linalg {
namespace {

TEST(Lu, SolvesKnownSystem) {
  const Matrix a{{2, 1}, {1, 3}};
  const LuDecomposition lu(a);
  ASSERT_FALSE(lu.is_singular());
  const Vec x = lu.solve(Vec{5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresSquare) {
  EXPECT_THROW(LuDecomposition(Matrix(2, 3)), InvalidArgument);
}

TEST(Lu, DetectsSingular) {
  const Matrix a{{1, 2}, {2, 4}};
  const LuDecomposition lu(a);
  EXPECT_TRUE(lu.is_singular());
  EXPECT_DOUBLE_EQ(lu.determinant(), 0.0);
  EXPECT_THROW(lu.solve(Vec{1, 2}), NumericalError);
}

TEST(Lu, DeterminantOfKnownMatrices) {
  EXPECT_NEAR(LuDecomposition(Matrix{{3}}).determinant(), 3.0, 1e-12);
  EXPECT_NEAR(LuDecomposition(Matrix{{1, 2}, {3, 4}}).determinant(), -2.0,
              1e-12);
  // Permutation matrix: determinant -1.
  EXPECT_NEAR(LuDecomposition(Matrix{{0, 1}, {1, 0}}).determinant(), -1.0,
              1e-12);
  // Triangular: product of diagonal.
  EXPECT_NEAR(
      LuDecomposition(Matrix{{2, 5, 1}, {0, 3, 7}, {0, 0, 4}}).determinant(),
      24.0, 1e-9);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  const Matrix a{{0, 1}, {1, 0}};
  const LuDecomposition lu(a);
  ASSERT_FALSE(lu.is_singular());
  const Vec x = lu.solve(Vec{3, 7});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  rng::Rng rng(5);
  const Matrix a = random_invertible(6, rng);
  const Matrix inv = LuDecomposition(a).inverse();
  EXPECT_TRUE((a * inv).approx_equal(Matrix::identity(6), 1e-8));
  EXPECT_TRUE((inv * a).approx_equal(Matrix::identity(6), 1e-8));
}

TEST(Lu, SolveMatrixColumnwise) {
  const Matrix a{{2, 0}, {0, 4}};
  const Matrix b{{2, 4}, {8, 12}};
  const Matrix x = LuDecomposition(a).solve(b);
  EXPECT_TRUE(x.approx_equal(Matrix{{1, 2}, {2, 3}}, 1e-12));
}

// Reference: A X = B one column at a time through solve_into.
Matrix solve_columnwise(const LuDecomposition& lu, const Matrix& b) {
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    lu.solve_into(b.col_view(c), x.col_view(c));
  }
  return x;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

// A simplex basis: mostly signed unit (slack/artificial) columns plus a few
// sparse structural columns, in a shuffled column order.
Matrix simplex_shaped(std::size_t n, rng::Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  Matrix a(n, n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t col = order[c];
    a(c, col) = rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
    if (c % 4 == 0) {  // structural column: a few extra nonzeros
      for (std::size_t k = 0; k < 3; ++k) {
        const auto r = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        if (r != c) a(r, col) = rng.uniform(-3.0, 3.0);
      }
    }
  }
  return a;
}

TEST(Lu, InverseMatchesColumnSolvesBitwise) {
  // inverse() and solve(Matrix) must give every element exactly the
  // sequential sum the single-RHS solve gives it (not merely close).
  rng::Rng rng(4242);
  std::vector<Matrix> cases;
  for (const std::size_t n : {1, 2, 7, 33, 64}) {
    cases.push_back(random_invertible(n, rng));
  }
  for (const std::size_t n : {5, 40, 101}) {
    cases.push_back(simplex_shaped(n, rng));
  }
  // Ill-conditioned: Hilbert, and rows graded from 1e-6 to 1e5.
  Matrix hilbert(9, 9);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      hilbert(i, j) = 1.0 / static_cast<double>(i + j + 1);
    }
  }
  cases.push_back(hilbert);
  Matrix graded = random_invertible(12, rng);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      graded(i, j) *= std::pow(10.0, static_cast<double>(i) - 6.0);
    }
  }
  cases.push_back(graded);

  for (const Matrix& a : cases) {
    const std::size_t n = a.rows();
    const LuDecomposition lu(a);
    ASSERT_FALSE(lu.is_singular()) << "n=" << n;
    const Matrix eye = Matrix::identity(n);
    EXPECT_TRUE(bitwise_equal(lu.inverse(), solve_columnwise(lu, eye)))
        << "inverse n=" << n;
    // A general right-hand side with exact zeros scattered through it.
    Matrix b(n, 5);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < 5; ++c) {
        b(i, c) = (i + c) % 3 == 0 ? 0.0 : rng.uniform(-4.0, 4.0);
      }
    }
    EXPECT_TRUE(bitwise_equal(lu.solve(b), solve_columnwise(lu, b)))
        << "solve n=" << n;
  }
}

TEST(Lu, PivotRatioPositiveForWellConditioned) {
  const LuDecomposition lu(Matrix::identity(4));
  EXPECT_DOUBLE_EQ(lu.pivot_ratio(), 1.0);
}

TEST(Lu, PivotRatioZeroForSingular) {
  const LuDecomposition lu(Matrix{{1, 1}, {1, 1}});
  EXPECT_DOUBLE_EQ(lu.pivot_ratio(), 0.0);
}

TEST(Lu, ResidualSmallOnRandomSystems) {
  rng::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 30));
    const Matrix a = random_invertible(n, rng);
    const Vec b = rng.uniform_vec(n, -10.0, 10.0);
    const Vec x = LuDecomposition(a).solve(b);
    const Vec residual = sub(a.apply(x), b);
    EXPECT_LT(norm(residual), 1e-7 * (1.0 + norm(b))) << "n=" << n;
  }
}

TEST(Lu, SolveDimensionChecked) {
  const LuDecomposition lu(Matrix::identity(3));
  EXPECT_THROW(lu.solve(Vec{1, 2}), InvalidArgument);
}

}  // namespace
}  // namespace aspe::linalg
