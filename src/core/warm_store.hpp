// One fingerprint-keyed, refcounted, byte-budgeted LRU store for every kind
// of warm state a long-lived host keeps between attack jobs: parsed corpora,
// score matrices (R[i][j] = I'_i^T T'_j), SNMF rank estimates, LEP and CoA
// sessions, and MIP root-basis states.
//
// Contract (docs/api.md, "Warm-state store"):
//   * Keys are caller-chosen strings per WarmKind; core::dispatch_attack
//     keys on corpus *fingerprints* (path + size + mtime) plus every option
//     the state depends on (see warm_key), so an edited corpus or a changed
//     option never resurfaces stale state.
//   * get_or_build returns a shared_ptr that stays valid for as long as the
//     caller holds it, eviction or not.
//   * Concurrent callers of one key block until its single builder finishes
//     and count as hits; a builder that throws leaves nothing behind, and
//     the next caller builds afresh.
//   * Eviction is byte-budgeted and refcount-safe: only entries no caller
//     holds (use_count() == 1) are evicted, least-recently-used first, until
//     resident bytes fit the budget (0 = unbounded). It runs after every
//     insert and resize, and on trim().
//   * The store keeps whatever the builder returned and never alters it, so
//     a hit is bit-identical to a rebuild whenever the build is
//     deterministic — which every attack-state build in this repo is.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

namespace aspe::core {

enum class WarmKind : std::uint8_t {
  Corpus,      // a parsed corpus file (cipher database or vector list)
  Score,       // the score matrix of a (db, trapdoors) corpus pair
  Rank,        // an SNMF latent-dimension estimate
  Lep,         // a built core::LepSession
  Coa,         // a core::CoaSession kept for warm SNMF resumes
  MipBasis,    // a MIP root-LP basis (core::MipWarmState)
};
inline constexpr std::size_t kWarmKinds = 6;

/// Join the fields of a warm-state key with '|'. Doubles print with 17
/// significant digits, enough to round-trip any double, so two different
/// values never share a key; bools print as 0/1.
template <class... Fields>
[[nodiscard]] std::string warm_key(const Fields&... fields) {
  std::ostringstream os;
  os.precision(17);
  ((os << fields << '|'), ...);
  return os.str();
}

class WarmStore {
 public:
  struct KindStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t bytes = 0;  // resident now
  };
  struct Stats {
    std::array<KindStats, kWarmKinds> kinds{};
    std::size_t bytes = 0;  // resident over all kinds

    [[nodiscard]] const KindStats& operator[](WarmKind kind) const {
      return kinds[static_cast<std::size_t>(kind)];
    }
  };

  /// What a builder returns: the value and the bytes it keeps resident.
  template <class T>
  struct Built {
    std::shared_ptr<T> value;
    std::size_t bytes = 0;
  };

  /// `memory_budget_bytes` bounds the resident bytes of all kinds together;
  /// 0 = unbounded.
  explicit WarmStore(std::size_t memory_budget_bytes = 0)
      : budget_(memory_budget_bytes) {}

  /// Return the value stored under (kind, key), running `build` (a callable
  /// returning Built<T>) on a miss. Different keys build concurrently.
  template <class T, class Build>
  [[nodiscard]] std::shared_ptr<T> get_or_build(WarmKind kind,
                                                const std::string& key,
                                                Build&& build) {
    using Mutable = std::remove_const_t<T>;
    return std::static_pointer_cast<T>(get_or_build_erased(kind, key, [&] {
      Built<T> built = build();
      return Built<void>{std::const_pointer_cast<Mutable>(built.value),
                         built.bytes};
    }));
  }

  /// Re-record the resident bytes of an entry whose value the caller (who
  /// holds it) has grown or shrunk in place, then evict to the budget.
  /// A key that is not resident is ignored.
  void resize(WarmKind kind, const std::string& key, std::size_t bytes);

  /// Evict unreferenced entries, LRU first, until resident bytes fit the
  /// budget. Call once the values a job held have been released.
  void trim();

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<void> value;  // null while building
    std::size_t bytes = 0;
    std::uint64_t last_use = 0;
  };
  using Key = std::pair<WarmKind, std::string>;

  std::shared_ptr<void> get_or_build_erased(
      WarmKind kind, const std::string& key,
      const std::function<Built<void>()>& build);
  KindStats& kind_stats(WarmKind kind) {
    return stats_.kinds[static_cast<std::size_t>(kind)];
  }
  /// Caller holds mu_.
  void evict_to_budget();

  const std::size_t budget_;
  mutable std::mutex mu_;
  std::condition_variable build_cv_;
  std::map<Key, Entry> entries_;
  std::uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace aspe::core
