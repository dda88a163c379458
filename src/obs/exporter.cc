#include "obs/exporter.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/atomic_io.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace infuserki::obs {
namespace {

struct ExporterMetrics {
  Counter* ticks;
  Counter* write_failures;
};

ExporterMetrics& Metrics() {
  static ExporterMetrics metrics{
      Registry::Get().GetCounter("obs/exporter_ticks"),
      Registry::Get().GetCounter("obs/exporter_write_failures")};
  return metrics;
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry uses '/' and
/// '.' freely, so everything else maps to '_' under an `infuserki_` prefix.
std::string PrometheusName(const std::string& name) {
  std::string out = "infuserki_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string FormatBound(double bound) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", bound);
  return buf;
}

}  // namespace

MetricsExporter::MetricsExporter(ExporterOptions options)
    : options_(std::move(options)), window_(options_.window_seconds) {
  // Touch the self-monitoring counters up front so every NDJSON record and
  // Prometheus dump carries them from the first tick.
  Metrics();
  if (options_.period.count() > 0) {
    thread_ = std::thread([this] { Loop(); });
  }
}

MetricsExporter::~MetricsExporter() { Stop(); }

void MetricsExporter::Stop() {
  bool was_stopped;
  {
    util::MutexLock lock(mu_);
    was_stopped = stop_;
    stop_ = true;
  }
  if (was_stopped) return;
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
  // Final flush: short-lived processes still leave >= 1 record behind.
  TickNow();
}

void MetricsExporter::TickNow() { ExportOnce(NowMicros()); }

bool MetricsExporter::running() const {
  util::MutexLock lock(mu_);
  return !stop_ && thread_.joinable();
}

void MetricsExporter::Loop() {
  for (;;) {
    {
      util::MutexLock lock(mu_);
      // Sleep one period, waking early only on Stop. Spurious wakeups
      // re-wait against the same deadline, so the tick cadence is stable.
      auto deadline = std::chrono::steady_clock::now() + options_.period;
      while (!stop_) {
        if (cv_.WaitUntil(mu_, deadline)) break;
      }
      if (stop_) return;
    }
    ExportOnce(NowMicros());
  }
}

void MetricsExporter::ExportOnce(int64_t now_us) {
  util::MutexLock tick_lock(tick_mu_);
  window_.Tick(now_us);
  Registry::Snapshot snapshot = Registry::Get().TakeSnapshot();
  if (!options_.ndjson_path.empty()) {
    if (!AppendLineAtomically(options_.ndjson_path,
                              NdjsonRecord(snapshot, now_us))) {
      Metrics().write_failures->Increment();
    }
  }
  if (!options_.prometheus_path.empty()) {
    if (!WriteFileAtomically(options_.prometheus_path,
                             PrometheusText(snapshot))) {
      Metrics().write_failures->Increment();
    }
  }
  Metrics().ticks->Increment();
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

std::string MetricsExporter::NdjsonRecord(const Registry::Snapshot& snapshot,
                                          int64_t now_us) const {
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

  JsonWriter rates;
  for (const auto& [name, rate] : window_.AllCounterRates()) {
    rates.AddNumber(name, rate);
  }
  JsonWriter windowed_histograms;
  for (const auto& [name, stats] : snapshot.histograms) {
    HistogramStats delta = window_.HistogramDelta(name);
    if (delta.count > 0) {
      windowed_histograms.AddRaw(name, HistogramStatsJson(delta));
    }
  }
  JsonWriter window;
  window.AddNumber("covered_seconds", window_.CoveredSeconds())
      .AddRaw("counter_rates", rates.Finish())
      .AddRaw("histograms", windowed_histograms.Finish());

  JsonWriter record;
  record.AddInt("t_us", now_us)
      .AddUint("tick", ticks() + 1)
      .AddRaw("counters", counters.Finish())
      .AddRaw("gauges", gauges.Finish())
      .AddRaw("histograms", histograms.Finish())
      .AddRaw("window", window.Finish());
  return record.Finish();
}

std::string MetricsExporter::PrometheusText(
    const Registry::Snapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    std::string prom = PrometheusName(name);
    out << "# TYPE " << prom << " counter\n"
        << prom << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string prom = PrometheusName(name);
    out << "# TYPE " << prom << " gauge\n"
        << prom << " " << JsonNumber(value) << "\n";
  }
  for (const auto& [name, stats] : snapshot.histograms) {
    std::string prom = PrometheusName(name);
    out << "# TYPE " << prom << " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < stats.buckets.size(); ++b) {
      cumulative += stats.buckets[b];
      double bound = Histogram::BucketBound(b);
      out << prom << "_bucket{le=\""
          << (std::isfinite(bound) ? FormatBound(bound) : "+Inf") << "\"} "
          << cumulative << "\n";
    }
    out << prom << "_sum " << JsonNumber(stats.sum) << "\n"
        << prom << "_count " << stats.count << "\n";
  }
  return out.str();
}

}  // namespace infuserki::obs
