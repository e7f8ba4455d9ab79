// Hot-path allocation guard: passing precondition checks and the view
// kernels they protect must not touch the heap.
//
// This binary replaces the global operator new with a counting one, so it is
// built as its own executable (the counter would otherwise see every test in
// aspe_tests). Each test resets the counter, runs 10,000 iterations of one
// hot-path call and asserts that nothing was allocated in between.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/error.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "nmf/nnls.hpp"
#include "rng/rng.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace aspe {
namespace {

constexpr int kCalls = 10000;

// Results are folded into a volatile sink so the loops cannot be optimized
// away; conditions come from a volatile so no check is decided at compile
// time.
volatile double g_sink = 0.0;
volatile std::size_t g_runtime_one = 1;

TEST(AllocFree, PassingRequireWithLongLiteralDoesNotAllocate) {
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < kCalls; ++i) {
    // Longer than any small-string buffer.
    require(g_runtime_one == 1,
            "AllocFree: a precondition message far longer than sixteen bytes");
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(AllocFree, DotOnSubvecViewsDoesNotAllocate) {
  linalg::Matrix a(8, 8, 0.5);
  const std::size_t before = g_allocations.load();
  double acc = 0.0;
  for (int i = 0; i < kCalls; ++i) {
    const std::size_t n = 1 + static_cast<std::size_t>(i) % 7 * g_runtime_one;
    acc += linalg::dot(a.row_view(n).subvec(0, n), a.col_view(n).subvec(1, n));
  }
  g_sink = acc;
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(AllocFree, MatrixViewBlockDoesNotAllocate) {
  linalg::Matrix a(8, 8, 0.25);
  const linalg::MatrixView v = a.view();
  const std::size_t before = g_allocations.load();
  double acc = 0.0;
  for (int i = 0; i < kCalls; ++i) {
    const std::size_t r0 = static_cast<std::size_t>(i) % 4 * g_runtime_one;
    acc += v.block(r0, 1, 4, 7)(3, 6);
  }
  g_sink = acc;
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(AllocFree, WarmNnlsResolveDoesNotAllocate) {
  // ANLS re-solves each column on a warm workspace tens of thousands of
  // times a restart. Two right-hand sides with different supports make
  // every re-solve move variables in and out of the passive set, so the
  // inherited copy, the in-place pruning and the factor refresh all run.
  const std::size_t n = 12;
  rng::Rng rng(5);
  linalg::Matrix a(n + 4, n);
  for (auto& v : a.data()) v = rng.uniform(-1.0, 1.0);
  linalg::Matrix g(n, n);
  linalg::gemm(1.0, a.cview(), linalg::Op::Transpose, a.cview(),
               linalg::Op::None, 0.0, g.view());
  const Vec f1 = a.apply_transposed(rng.uniform_vec(n + 4, -1.0, 1.0));
  const Vec f2 = a.apply_transposed(rng.uniform_vec(n + 4, -1.0, 1.0));
  nmf::NnlsWorkspace ws;
  Vec x(n, 0.0);
  std::vector<std::size_t> support1, support2;
  for (int round = 0; round < 2; ++round) {  // warm-up
    nmf::nnls_gram(g, f1, linalg::VecView(x), ws);
    support1 = ws.passive_set();
    nmf::nnls_gram(g, f2, linalg::VecView(x), ws);
    support2 = ws.passive_set();
  }
  ASSERT_NE(support1, support2);
  ASSERT_FALSE(support1.empty());
  const std::size_t before = g_allocations.load();
  double acc = 0.0;
  for (int i = 0; i < kCalls; ++i) {
    nmf::nnls_gram(g, i % 2 == 0 ? f1 : f2, linalg::VecView(x), ws);
    acc += x[0];
  }
  g_sink = acc;
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(AllocFree, FailingRequireStillCarriesItsMessage) {
  try {
    require(g_runtime_one == 0, "AllocFree: the message survives the throw");
    FAIL() << "require did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "AllocFree: the message survives the throw");
  }
}

}  // namespace
}  // namespace aspe
