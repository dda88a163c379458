#ifndef INFUSERKI_OBS_EXPORTER_H_
#define INFUSERKI_OBS_EXPORTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/window.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace infuserki::obs {

/// Configuration for the background metrics exporter. A zero period
/// disables it entirely (no thread is spawned).
struct ExporterOptions {
  /// Export period; 0 disables the exporter.
  std::chrono::milliseconds period{0};
  /// NDJSON time-series file: one JSON object per tick, appended as a
  /// single atomic write (records never tear or interleave). Empty skips.
  std::string ndjson_path;
  /// Prometheus text-exposition file, atomically rewritten every tick.
  /// Empty skips.
  std::string prometheus_path;
  /// Horizon for the windowed rates/quantiles in each NDJSON record.
  double window_seconds = 30.0;
};

/// Background thread that periodically snapshots the metrics registry and
/// publishes it as (a) an append-only NDJSON time series with cumulative
/// and sliding-window views, and (b) a Prometheus text-exposition file.
/// Stop() (and the destructor) performs one final synchronous tick so even
/// short-lived processes leave at least one record behind.
///
/// Self-monitoring: `obs/exporter_ticks` counts completed ticks and
/// `obs/exporter_write_failures` counts failed file publications.
class MetricsExporter {
 public:
  /// Starts the export thread when options.period > 0.
  explicit MetricsExporter(ExporterOptions options);
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Final tick + thread join. Idempotent and safe to call concurrently
  /// with metric mutation.
  void Stop() EXCLUDES(mu_, tick_mu_);

  /// Runs one export synchronously (also used by the final flush and
  /// tests). Serialized against the background thread's ticks.
  void TickNow() EXCLUDES(tick_mu_);

  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  bool running() const EXCLUDES(mu_);

 private:
  void Loop() EXCLUDES(mu_, tick_mu_);
  void ExportOnce(int64_t now_us) EXCLUDES(tick_mu_);
  std::string NdjsonRecord(const Registry::Snapshot& snapshot,
                           int64_t now_us) const REQUIRES(tick_mu_);
  static std::string PrometheusText(const Registry::Snapshot& snapshot);

  const ExporterOptions options_;
  std::atomic<uint64_t> ticks_{0};
  // tick_mu_ serializes ExportOnce between the thread and TickNow; it is
  // above the only locks it ticks into (window_'s own mutex and the
  // registry), calls no caller code, and is never held together with mu_
  // (DESIGN.md §13).
  mutable util::Mutex tick_mu_;
  SlidingWindow window_ GUARDED_BY(tick_mu_);
  mutable util::Mutex mu_;
  util::CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;  // set in ctor, joined by Stop; never concurrent
};

}  // namespace infuserki::obs

#endif  // INFUSERKI_OBS_EXPORTER_H_
