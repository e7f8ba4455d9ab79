// core::WarmStore on its own: single-build under concurrent misses, failed
// builds, refcount pins, LRU order, per-kind accounting and key digits.
#include "core/warm_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

namespace aspe::core {
namespace {

using Int = const int;

/// Builder of an int value that claims `bytes` resident and counts builds.
auto int_builder(int value, std::size_t bytes, std::atomic<int>* builds) {
  return [=] {
    if (builds != nullptr) ++*builds;
    return WarmStore::Built<Int>{std::make_shared<Int>(value), bytes};
  };
}

TEST(WarmStore, ConcurrentMissesOnOneKeyBuildOnce) {
  WarmStore store;
  std::atomic<int> builds{0};
  std::atomic<bool> second_arriving{false};
  std::shared_ptr<Int> first, second;

  std::thread builder([&] {
    first = store.get_or_build<Int>(WarmKind::Score, "k", [&] {
      ++builds;
      // Hold the building marker until the second caller is on its way in.
      while (!second_arriving.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return WarmStore::Built<Int>{std::make_shared<Int>(7), 4};
    });
  });
  // Start the waiter only once the build is under way.
  while (builds.load() == 0) std::this_thread::yield();
  std::thread waiter([&] {
    second_arriving = true;
    second = store.get_or_build<Int>(WarmKind::Score, "k",
                                     int_builder(8, 4, &builds));
  });
  builder.join();
  waiter.join();

  EXPECT_EQ(builds.load(), 1);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second);  // the very same value, not a second build
  const WarmStore::Stats st = store.stats();
  EXPECT_EQ(st[WarmKind::Score].misses, 1u);
  EXPECT_EQ(st[WarmKind::Score].hits, 1u);
}

TEST(WarmStore, ThrowingBuildLeavesNothingBehind) {
  WarmStore store;
  EXPECT_THROW((void)store.get_or_build<Int>(
                   WarmKind::Lep, "k",
                   []() -> WarmStore::Built<Int> {
                     throw std::runtime_error("half-built session");
                   }),
               std::runtime_error);
  EXPECT_EQ(store.stats().bytes, 0u);

  std::atomic<int> builds{0};
  const auto value = store.get_or_build<Int>(WarmKind::Lep, "k",
                                             int_builder(3, 16, &builds));
  EXPECT_EQ(*value, 3);
  EXPECT_EQ(builds.load(), 1);  // rebuilt, not served a failed marker
  const WarmStore::Stats st = store.stats();
  EXPECT_EQ(st[WarmKind::Lep].misses, 2u);
  EXPECT_EQ(st[WarmKind::Lep].hits, 0u);
  EXPECT_EQ(st.bytes, 16u);
}

TEST(WarmStore, PinnedEntrySurvivesEviction) {
  WarmStore store(100);
  std::atomic<int> builds{0};
  auto pinned = store.get_or_build<Int>(WarmKind::Corpus, "a",
                                        int_builder(1, 60, &builds));
  auto held = store.get_or_build<Int>(WarmKind::Corpus, "b",
                                      int_builder(2, 60, &builds));
  // Both are held: nothing can go, so the store sits above its budget.
  EXPECT_EQ(store.stats().bytes, 120u);

  held.reset();
  store.trim();  // "b" is free now and goes; "a" is still pinned
  EXPECT_EQ(store.stats().bytes, 60u);
  EXPECT_EQ(store.stats()[WarmKind::Corpus].evictions, 1u);
  EXPECT_EQ(store.get_or_build<Int>(WarmKind::Corpus, "a",
                                    int_builder(9, 60, &builds)),
            pinned);
  EXPECT_EQ(builds.load(), 2);
}

TEST(WarmStore, EvictsLeastRecentlyUsedFirst) {
  WarmStore store(250);
  std::atomic<int> builds{0};
  const auto put = [&](const char* key) {
    (void)store.get_or_build<Int>(WarmKind::Rank, key,
                                  int_builder(0, 100, &builds));
  };
  put("a");
  put("b");
  put("c");  // 300 > 250: "a", the oldest, goes
  put("b");  // a hit makes "b" the most recent
  put("d");  // 300 > 250 again: now "c" is the oldest
  EXPECT_EQ(builds.load(), 4);
  put("b");
  put("d");
  EXPECT_EQ(builds.load(), 4);  // both still resident
  put("c");
  EXPECT_EQ(builds.load(), 5);  // evicted, so rebuilt
  EXPECT_EQ(store.stats()[WarmKind::Rank].evictions, 3u);
}

TEST(WarmStore, CountsEachKindSeparately) {
  WarmStore store;
  // One key string in two kinds names two entries.
  (void)store.get_or_build<Int>(WarmKind::Corpus, "k",
                                int_builder(1, 10, nullptr));
  (void)store.get_or_build<Int>(WarmKind::Score, "k",
                                int_builder(2, 20, nullptr));
  EXPECT_EQ(*store.get_or_build<Int>(WarmKind::Score, "k",
                                     int_builder(3, 20, nullptr)),
            2);
  store.resize(WarmKind::Corpus, "k", 15);
  store.resize(WarmKind::Corpus, "absent", 1000);  // ignored

  const WarmStore::Stats st = store.stats();
  EXPECT_EQ(st[WarmKind::Corpus].misses, 1u);
  EXPECT_EQ(st[WarmKind::Corpus].hits, 0u);
  EXPECT_EQ(st[WarmKind::Corpus].bytes, 15u);
  EXPECT_EQ(st[WarmKind::Score].misses, 1u);
  EXPECT_EQ(st[WarmKind::Score].hits, 1u);
  EXPECT_EQ(st[WarmKind::Score].bytes, 20u);
  EXPECT_EQ(st[WarmKind::MipBasis].misses, 0u);
  EXPECT_EQ(st.bytes, 35u);
}

TEST(WarmStore, KeysKeepEveryDigit) {
  EXPECT_NE(warm_key("c", 1e-9), warm_key("c", 1.0000001e-9));
  EXPECT_NE(warm_key(0.1), warm_key(std::nextafter(0.1, 1.0)));
  EXPECT_EQ(warm_key("a", 2, true), "a|2|1|");
}

}  // namespace
}  // namespace aspe::core
