#ifndef INFUSERKI_OBS_METRICS_H_
#define INFUSERKI_OBS_METRICS_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace infuserki::obs {

/// Monotonically increasing event count. Increment() is a single relaxed
/// atomic add: cheap enough for tensor-op hot paths and worker threads.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  const std::string name_;
  std::atomic<uint64_t> value_{0};
};

/// Last-written scalar. Set() overwrites; UpdateMax() is an atomic
/// compare-and-swap maximum (used for high-water marks such as queue depth).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// Raises the gauge to `value` if it exceeds the current reading. NaN is
  /// rejected outright: NaN compares false against everything, so a NaN
  /// sample must not poison the high-water mark, and a NaN that reached the
  /// stored value (via Set) would otherwise wedge UpdateMax forever
  /// (`value > NaN` is false for every later sample).
  void UpdateMax(double value) {
    if (std::isnan(value)) return;
    double current = value_.load(std::memory_order_relaxed);
    while ((std::isnan(current) || value > current) &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  const std::string name_;
  std::atomic<double> value_{0.0};
};

/// Aggregated view of one histogram at a point in time. Quantiles are
/// interpolated from the exponential buckets, so each is exact to within
/// one bucket (<= 2x relative error) and exact for constant distributions
/// (the interpolation clamps to [min, max]). An empty histogram reports
/// count == 0 with every other field zero — callers must check `count`
/// before treating min/max as observed samples.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  /// Per-bucket sample counts (size Histogram::kNumBuckets) — the raw
  /// material for quantile interpolation and windowed deltas.
  std::vector<uint64_t> buckets;
};

/// Interpolated quantile (q in [0, 1]) from `stats.buckets`: walks the
/// cumulative bucket counts to the bucket containing rank ceil(q * count),
/// linearly interpolates inside it, and clamps to [min, max]. Returns 0 for
/// an empty histogram.
double HistogramQuantile(const HistogramStats& stats, double q);

/// Point-in-time difference `after - before` of the same histogram (counts,
/// sum, and buckets subtract; quantiles are recomputed from the delta
/// buckets). min/max cannot be subtracted, so the delta carries `after`'s
/// cumulative bounds — a documented approximation that only loosens the
/// clamp on interpolated quantiles.
HistogramStats SubtractHistogramStats(const HistogramStats& after,
                                      const HistogramStats& before);

/// JSON object {"count","sum","mean","min","max","p50","p90","p99","p999"}
/// for one histogram (buckets omitted): the one writer behind the registry
/// dump.
std::string HistogramStatsJson(const HistogramStats& stats);

/// Distribution of positive samples (latencies, sizes) over exponential
/// base-2 buckets starting at 1e-6. All updates are relaxed atomics; a
/// concurrent Snapshot may observe a sample's count before its sum, which
/// is acceptable for monitoring data.
class Histogram {
 public:
  /// Bucket `i` covers values in (1e-6 * 2^(i-1), 1e-6 * 2^i]; bucket 0
  /// covers everything <= 1e-6. 44 buckets reach ~1e7 seconds.
  static constexpr size_t kNumBuckets = 44;
  static constexpr double kFirstBound = 1e-6;

  void Record(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  HistogramStats Stats() const;
  uint64_t BucketCount(size_t bucket) const;
  /// Upper bound of `bucket` (inclusive); +inf for the last bucket.
  static double BucketBound(size_t bucket);
  /// Index of the bucket `value` lands in (shared with the serve test's
  /// quantile cross-check, so "within one bucket" means the same thing
  /// everywhere).
  static size_t BucketIndexFor(double value);

  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  const std::string name_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // min/max start at +/-inf so every Record competes through the CAS
  // min/max loops — a conditional "first sample seeds the field" store
  // could overwrite a concurrently CAS-published smaller min / larger max.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

/// Process-wide metric registry. Lookup takes a mutex — call sites on hot
/// paths cache the returned pointer (function-local static); the metric
/// objects themselves live forever and their update paths are lock-free.
///
/// Locking contract: `Get()` is a magic static (thread-safe first touch);
/// every access to the name->metric maps — registration, snapshot, dump,
/// reset — holds `mu_` (GUARDED_BY, compiler-enforced under the tsa preset).
/// Returned metric pointers are stable forever and may be updated from any
/// thread without the registry lock (their state is all std::atomic). `mu_`
/// is near the bottom of the lock hierarchy (DESIGN.md §13): it may be taken
/// under component locks (e.g. PrefixCache::mu_ publishing gauges) and takes
/// nothing itself.
class Registry {
 public:
  static Registry& Get();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// Registering the same name as two different kinds is a programming
  /// error and aborts.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Point-in-time copy of every registered metric, sorted by name.
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramStats> histograms;
  };
  Snapshot TakeSnapshot() const;

  /// Increase of counter `name` from `before` to `after`: 0 when `after`
  /// lacks it, the whole value when only `after` has it, and 0 rather than
  /// a wrapped difference if the counter was reset in between. Static
  /// members rather than free functions, so argument-dependent lookup from
  /// callers with same-named helpers of their own stays unambiguous.
  static uint64_t CounterDelta(const Snapshot& before, const Snapshot& after,
                               const std::string& name);

  /// Histogram `name` over the same span (SubtractHistogramStats): empty
  /// stats when `after` lacks it, the cumulative view when only `after`
  /// has it.
  static HistogramStats HistogramDelta(const Snapshot& before,
                                       const Snapshot& after,
                                       const std::string& name);

  /// Human-readable one-metric-per-line dump.
  std::string TextDump() const;

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string JsonDump() const;

  /// Zeroes every registered metric (names stay registered). Test helper.
  void ResetAll();

 private:
  Registry() = default;

  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace infuserki::obs

#endif  // INFUSERKI_OBS_METRICS_H_
