#include "serve/prefix_cache.h"

#include <utility>

#include "obs/metrics.h"

namespace infuserki::serve {
namespace {

struct CacheMetrics {
  obs::Counter* evictions;
  obs::Gauge* cached_tokens;
  obs::Gauge* cached_prefixes;
};

CacheMetrics& Metrics() {
  // Resolved once under the magic-static guard; updates afterwards are
  // relaxed atomics, so Lookup/Insert publish without touching the
  // registry lock (same idiom as EngineMetrics in batched_session.cc).
  static CacheMetrics* metrics = [] {
    obs::Registry& registry = obs::Registry::Get();
    return new CacheMetrics{registry.GetCounter("serve/evictions"),
                            registry.GetGauge("serve/cached_tokens"),
                            registry.GetGauge("serve/cached_prefixes")};
  }();
  return *metrics;
}

}  // namespace

PrefixCache::PrefixCache(size_t budget_tokens)
    : budget_tokens_(budget_tokens) {}

std::shared_ptr<const PrefixCache::Entry> PrefixCache::Lookup(
    const std::vector<int>& prompt, uint64_t generation) {
  util::MutexLock lock(mu_);
  auto it = slots_.find(Key(generation, prompt));
  if (it == slots_.end()) return nullptr;
  it->second.last_use = ++tick_;
  return it->second.entry;
}

size_t PrefixCache::Insert(std::shared_ptr<const Entry> entry) {
  if (entry == nullptr) return 0;
  util::MutexLock lock(mu_);
  if (entry->generation != 0 && entry->generation != active_generation_) {
    // A row admitted under a since-replaced adapter version is parking its
    // prefix after the swap already invalidated that generation. Readmitting
    // it would resurrect K/V pages no future lookup may use (lookups carry
    // the active generation), so the entry is dropped on the floor. Not an
    // eviction: it never entered the pool.
    return 0;
  }
  auto it = slots_.find(Key(entry->generation, entry->prompt));
  if (it != slots_.end()) {
    // The prompt is already resident (e.g. two batch rows prefilled it
    // concurrently, or a prefix-hit row is re-publishing at retirement).
    // Keep the resident copy — sharers may already hold it — and only
    // refresh recency. Budget accounting is untouched: the prefix is
    // stored and counted exactly once however many rows share it.
    it->second.last_use = ++tick_;
    return 0;
  }
  size_t tokens = entry->prompt.size();
  Key key(entry->generation, entry->prompt);
  Slot slot;
  slot.entry = std::move(entry);
  slot.last_use = ++tick_;
  slots_.emplace(std::move(key), std::move(slot));
  cached_tokens_ += tokens;
  size_t evicted = EnforceBudgetLocked();
  PublishLocked();
  return evicted;
}

size_t PrefixCache::Clear() {
  util::MutexLock lock(mu_);
  size_t dropped = slots_.size();
  slots_.clear();
  cached_tokens_ = 0;
  if (dropped > 0) Metrics().evictions->Increment(dropped);
  PublishLocked();
  return dropped;
}

size_t PrefixCache::InvalidateGeneration(uint64_t gen) {
  util::MutexLock lock(mu_);
  size_t dropped = 0;
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->first.first == gen) {
      cached_tokens_ -= it->second.entry->prompt.size();
      it = slots_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) {
    Metrics().evictions->Increment(dropped);
    PublishLocked();
  }
  return dropped;
}

void PrefixCache::SetActiveGeneration(uint64_t gen) {
  util::MutexLock lock(mu_);
  active_generation_ = gen;
}

uint64_t PrefixCache::active_generation() const {
  util::MutexLock lock(mu_);
  return active_generation_;
}

size_t PrefixCache::cached_tokens() const {
  util::MutexLock lock(mu_);
  return cached_tokens_;
}

size_t PrefixCache::entries() const {
  util::MutexLock lock(mu_);
  return slots_.size();
}

size_t PrefixCache::EnforceBudgetLocked() {
  size_t evicted = 0;
  while (cached_tokens_ > budget_tokens_ && !slots_.empty()) {
    auto victim = slots_.begin();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    // Dropping the pool's reference frees the pages only once the last
    // in-flight sharer releases its handle.
    cached_tokens_ -= victim->second.entry->prompt.size();
    slots_.erase(victim);
    Metrics().evictions->Increment();
    ++evicted;
  }
  return evicted;
}

void PrefixCache::PublishLocked() {
  Metrics().cached_tokens->Set(static_cast<double>(cached_tokens_));
  Metrics().cached_prefixes->Set(static_cast<double>(slots_.size()));
}

}  // namespace infuserki::serve
