#include "core/warm_store.hpp"

#include "obs/obs.hpp"

namespace aspe::core {

namespace {

const char* kind_name(WarmKind kind) {
  switch (kind) {
    case WarmKind::Corpus: return "corpus";
    case WarmKind::Score: return "score";
    case WarmKind::Rank: return "rank";
    case WarmKind::Lep: return "lep_session";
    case WarmKind::Coa: return "coa_session";
    case WarmKind::MipBasis: return "mip_basis";
  }
  return "unknown";
}

/// Mirror a store event into the running job's recording (if any) as
/// counter "warm.<kind>.<event>".
void count(WarmKind kind, const char* event) {
  const std::string name =
      std::string("warm.") + kind_name(kind) + '.' + event;
  obs::counter_add(name.c_str(), 1.0);
}

}  // namespace

std::shared_ptr<void> WarmStore::get_or_build_erased(
    WarmKind kind, const std::string& key,
    const std::function<Built<void>()>& build) {
  const Key k{kind, key};
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(k);
    if (it == entries_.end()) break;
    if (it->second.value != nullptr) {
      ++kind_stats(kind).hits;
      it->second.last_use = ++tick_;
      count(kind, "hits");
      return it->second.value;
    }
    // Another caller is building this key: wait for it rather than paying
    // for a duplicate build. The builder may also fail and erase the
    // marker, in which case the loop falls through to a fresh build.
    build_cv_.wait(lock);
  }

  ++kind_stats(kind).misses;
  count(kind, "misses");
  entries_.emplace(k, Entry{});  // building marker
  lock.unlock();

  Built<void> built;
  try {
    built = build();
  } catch (...) {
    lock.lock();
    entries_.erase(k);
    build_cv_.notify_all();
    throw;
  }

  lock.lock();
  Entry& entry = entries_[k];
  entry.value = built.value;
  entry.bytes = built.bytes;
  entry.last_use = ++tick_;
  kind_stats(kind).bytes += built.bytes;
  stats_.bytes += built.bytes;
  evict_to_budget();
  build_cv_.notify_all();
  return built.value;
}

void WarmStore::resize(WarmKind kind, const std::string& key,
                       std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find({kind, key});
  if (it == entries_.end() || it->second.value == nullptr) return;
  kind_stats(kind).bytes = kind_stats(kind).bytes - it->second.bytes + bytes;
  stats_.bytes = stats_.bytes - it->second.bytes + bytes;
  it->second.bytes = bytes;
  evict_to_budget();
}

void WarmStore::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  evict_to_budget();
}

WarmStore::Stats WarmStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WarmStore::evict_to_budget() {
  if (budget_ == 0) return;
  while (stats_.bytes > budget_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.value == nullptr) continue;        // building
      if (it->second.value.use_count() > 1) continue;  // held by a job
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything resident is in use
    const WarmKind kind = victim->first.first;
    KindStats& ks = kind_stats(kind);
    ks.bytes -= victim->second.bytes;
    ++ks.evictions;
    stats_.bytes -= victim->second.bytes;
    count(kind, "evictions");
    entries_.erase(victim);
  }
}

}  // namespace aspe::core
