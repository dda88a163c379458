#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "obs/json.h"

namespace infuserki::obs {
namespace {

void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void FillQuantiles(HistogramStats* stats) {
  stats->p50 = HistogramQuantile(*stats, 0.50);
  stats->p90 = HistogramQuantile(*stats, 0.90);
  stats->p99 = HistogramQuantile(*stats, 0.99);
  stats->p999 = HistogramQuantile(*stats, 0.999);
}

}  // namespace

double HistogramQuantile(const HistogramStats& stats, double q) {
  if (stats.count == 0 || stats.buckets.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank target: the k-th smallest sample with k = ceil(q * count),
  // floored at 1 so every quantile of a single sample is that sample.
  double target = std::max(1.0, q * static_cast<double>(stats.count));
  double cumulative = 0.0;
  for (size_t b = 0; b < stats.buckets.size(); ++b) {
    double in_bucket = static_cast<double>(stats.buckets[b]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      double lower = b == 0 ? 0.0 : Histogram::BucketBound(b - 1);
      double upper = Histogram::BucketBound(b);
      if (!std::isfinite(upper)) upper = std::max(stats.max, lower);
      double fraction = (target - cumulative) / in_bucket;
      double value = lower + fraction * (upper - lower);
      // The clamp makes constant distributions exact (min == max == value)
      // and keeps interpolation inside the observed range.
      return std::clamp(value, stats.min, stats.max);
    }
    cumulative += in_bucket;
  }
  return stats.max;
}

HistogramStats SubtractHistogramStats(const HistogramStats& after,
                                      const HistogramStats& before) {
  HistogramStats delta;
  delta.count = after.count >= before.count ? after.count - before.count : 0;
  delta.sum = after.sum - before.sum;
  delta.min = after.min;
  delta.max = after.max;
  delta.mean =
      delta.count == 0 ? 0.0 : delta.sum / static_cast<double>(delta.count);
  delta.buckets.resize(after.buckets.size(), 0);
  for (size_t b = 0; b < after.buckets.size(); ++b) {
    uint64_t prior = b < before.buckets.size() ? before.buckets[b] : 0;
    delta.buckets[b] =
        after.buckets[b] >= prior ? after.buckets[b] - prior : 0;
  }
  if (delta.count == 0) return HistogramStats{};
  FillQuantiles(&delta);
  return delta;
}

std::string HistogramStatsJson(const HistogramStats& stats) {
  JsonWriter out;
  out.AddUint("count", stats.count)
      .AddNumber("sum", stats.sum)
      .AddNumber("mean", stats.mean)
      .AddNumber("min", stats.min)
      .AddNumber("max", stats.max)
      .AddNumber("p50", stats.p50)
      .AddNumber("p90", stats.p90)
      .AddNumber("p99", stats.p99)
      .AddNumber("p999", stats.p999);
  return out.Finish();
}

void Histogram::Record(double value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  // min_/max_ start at +/-inf, so the CAS loops alone are correct for the
  // first sample too — no seeding store that could clobber a concurrent
  // update (the old `if (previous == 0)` branch lost min/max under races).
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
  buckets_[BucketIndexFor(value)].fetch_add(1, std::memory_order_relaxed);
}

HistogramStats Histogram::Stats() const {
  HistogramStats stats;
  stats.count = count_.load(std::memory_order_relaxed);
  stats.buckets.resize(kNumBuckets, 0);
  for (size_t b = 0; b < kNumBuckets; ++b) {
    stats.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  if (stats.count == 0) return stats;
  stats.sum = sum_.load(std::memory_order_relaxed);
  double min = min_.load(std::memory_order_relaxed);
  double max = max_.load(std::memory_order_relaxed);
  // A racing snapshot can observe count > 0 before the first sample's
  // CAS published min/max; report 0 rather than +/-inf in that window.
  stats.min = std::isfinite(min) ? min : 0.0;
  stats.max = std::isfinite(max) ? max : 0.0;
  stats.mean = stats.sum / static_cast<double>(stats.count);
  FillQuantiles(&stats);
  return stats;
}

uint64_t Histogram::BucketCount(size_t bucket) const {
  return bucket < kNumBuckets
             ? buckets_[bucket].load(std::memory_order_relaxed)
             : 0;
}

double Histogram::BucketBound(size_t bucket) {
  if (bucket + 1 >= kNumBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return kFirstBound * std::pow(2.0, static_cast<double>(bucket));
}

size_t Histogram::BucketIndexFor(double value) {
  if (value <= kFirstBound) return 0;
  // Smallest i with value <= kFirstBound * 2^i.
  int exponent = static_cast<int>(std::ceil(std::log2(value / kFirstBound)));
  if (exponent < 0) return 0;
  size_t bucket = static_cast<size_t>(exponent);
  return bucket < kNumBuckets ? bucket : kNumBuckets - 1;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

Registry& Registry::Get() {
  static Registry* registry = new Registry();
  return *registry;
}

namespace {

// Aborts on kind collisions: the same name registered as two metric kinds
// is a naming bug, and silently returning null would hide it.
template <typename Map>
void CheckNameFree(const Map& map, const std::string& name,
                   const char* kind) {
  if (map.find(name) != map.end()) {
    std::fprintf(stderr,
                 "obs: metric '%s' already registered as a %s; pick a "
                 "distinct name per kind\n",
                 name.c_str(), kind);
    std::abort();
  }
}

}  // namespace

Counter* Registry::GetCounter(const std::string& name) {
  util::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    CheckNameFree(gauges_, name, "gauge");
    CheckNameFree(histograms_, name, "histogram");
    it = counters_
             .emplace(name, std::unique_ptr<Counter>(new Counter(name)))
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    CheckNameFree(counters_, name, "counter");
    CheckNameFree(histograms_, name, "histogram");
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(name)))
             .first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  util::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    CheckNameFree(counters_, name, "counter");
    CheckNameFree(gauges_, name, "gauge");
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(new Histogram(name)))
             .first;
  }
  return it->second.get();
}

Registry::Snapshot Registry::TakeSnapshot() const {
  util::MutexLock lock(mu_);
  Snapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Stats();
  }
  return snapshot;
}

std::string Registry::TextDump() const {
  Snapshot snapshot = TakeSnapshot();
  std::ostringstream os;
  for (const auto& [name, value] : snapshot.counters) {
    os << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    os << name << " = " << value << "\n";
  }
  for (const auto& [name, stats] : snapshot.histograms) {
    os << name << " = count " << stats.count << ", sum " << stats.sum
       << ", mean " << stats.mean << ", min " << stats.min << ", max "
       << stats.max << ", p50 " << stats.p50 << ", p90 " << stats.p90
       << ", p99 " << stats.p99 << ", p999 " << stats.p999 << "\n";
  }
  return os.str();
}

std::string Registry::JsonDump() const {
  Snapshot snapshot = TakeSnapshot();
  JsonWriter counters;
  for (const auto& [name, value] : snapshot.counters) {
    counters.AddUint(name, value);
  }
  JsonWriter gauges;
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.AddNumber(name, value);
  }
  JsonWriter histograms;
  for (const auto& [name, stats] : snapshot.histograms) {
    histograms.AddRaw(name, HistogramStatsJson(stats));
  }
  JsonWriter out;
  out.AddRaw("counters", counters.Finish())
      .AddRaw("gauges", gauges.Finish())
      .AddRaw("histograms", histograms.Finish());
  return out.Finish();
}

uint64_t Registry::CounterDelta(const Snapshot& before, const Snapshot& after,
                                const std::string& name) {
  auto after_it = after.counters.find(name);
  if (after_it == after.counters.end()) return 0;
  auto before_it = before.counters.find(name);
  uint64_t base = before_it == before.counters.end() ? 0 : before_it->second;
  return after_it->second >= base ? after_it->second - base : 0;
}

HistogramStats Registry::HistogramDelta(const Snapshot& before,
                                        const Snapshot& after,
                                        const std::string& name) {
  auto after_it = after.histograms.find(name);
  if (after_it == after.histograms.end()) return HistogramStats{};
  auto before_it = before.histograms.find(name);
  if (before_it == before.histograms.end()) return after_it->second;
  return SubtractHistogramStats(after_it->second, before_it->second);
}

void Registry::ResetAll() {
  util::MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace infuserki::obs
