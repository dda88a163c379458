#include "obs/slo_report.h"

#include "obs/json.h"

namespace infuserki::obs {
namespace {

SloLatency LatencyDelta(const Registry::Snapshot& before,
                        const Registry::Snapshot& after,
                        const std::string& name) {
  HistogramStats delta = Registry::HistogramDelta(before, after, name);
  SloLatency latency;
  latency.count = delta.count;
  latency.mean_ms = delta.mean * 1e3;
  latency.p50_ms = delta.p50 * 1e3;
  latency.p90_ms = delta.p90 * 1e3;
  latency.p99_ms = delta.p99 * 1e3;
  latency.p999_ms = delta.p999 * 1e3;
  latency.max_ms = delta.max * 1e3;
  return latency;
}

std::string LatencyJson(const SloLatency& latency) {
  JsonWriter out;
  out.AddUint("count", latency.count)
      .AddNumber("mean_ms", latency.mean_ms)
      .AddNumber("p50_ms", latency.p50_ms)
      .AddNumber("p90_ms", latency.p90_ms)
      .AddNumber("p99_ms", latency.p99_ms)
      .AddNumber("p999_ms", latency.p999_ms)
      .AddNumber("max_ms", latency.max_ms);
  return out.Finish();
}

}  // namespace

SloReport BuildSloReport(const Registry::Snapshot& before,
                         const Registry::Snapshot& after) {
  auto counter = [&](const char* name) {
    return Registry::CounterDelta(before, after, name);
  };
  SloReport report;
  report.requests = counter("serve/requests");
  report.completed = counter("serve/completed");
  report.shed = counter("serve/shed");
  report.deadline_misses = counter("serve/deadline_misses");
  report.cancelled = counter("serve/cancelled");
  report.failures = counter("serve/failures");
  report.degraded = counter("serve/degraded");
  report.retries = counter("serve/retries");
  report.shed_queue_full = counter("serve/shed_queue_full");
  report.shed_tenant_cap = counter("serve/shed_tenant_cap");
  report.shed_rate_limited = counter("serve/shed_rate_limited");
  report.shed_brownout = counter("serve/shed_brownout");
  report.shed_infeasible = counter("serve/shed_infeasible");
  report.watchdog_stalls = counter("serve/watchdog_stalls");
  report.watchdog_recoveries = counter("serve/watchdog_recoveries");
  // Mean in the histogram's native unit (no ms scaling); an empty delta
  // has mean 0.
  report.brownout_mean_level =
      Registry::HistogramDelta(before, after, "serve/brownout_level_samples")
          .mean;
  if (report.requests > 0) {
    double requests = static_cast<double>(report.requests);
    report.shed_rate = static_cast<double>(report.shed) / requests;
    report.deadline_miss_rate =
        static_cast<double>(report.deadline_misses) / requests;
  }
  report.e2e = LatencyDelta(before, after, "serve/e2e_ok_seconds");
  report.ttft = LatencyDelta(before, after, "serve/ttft_seconds");
  report.inter_token =
      LatencyDelta(before, after, "serve/inter_token_seconds");
  report.queue_wait =
      LatencyDelta(before, after, "serve/queue_wait_seconds");
  return report;
}

std::string SloReportJson(const SloReport& report) {
  JsonWriter out;
  out.AddUint("requests", report.requests)
      .AddUint("completed", report.completed)
      .AddUint("shed", report.shed)
      .AddUint("deadline_misses", report.deadline_misses)
      .AddUint("cancelled", report.cancelled)
      .AddUint("failures", report.failures)
      .AddUint("degraded", report.degraded)
      .AddUint("retries", report.retries)
      .AddUint("shed_queue_full", report.shed_queue_full)
      .AddUint("shed_tenant_cap", report.shed_tenant_cap)
      .AddUint("shed_rate_limited", report.shed_rate_limited)
      .AddUint("shed_brownout", report.shed_brownout)
      .AddUint("shed_infeasible", report.shed_infeasible)
      .AddUint("watchdog_stalls", report.watchdog_stalls)
      .AddUint("watchdog_recoveries", report.watchdog_recoveries)
      .AddNumber("brownout_mean_level", report.brownout_mean_level)
      .AddNumber("shed_rate", report.shed_rate)
      .AddNumber("deadline_miss_rate", report.deadline_miss_rate)
      .AddRaw("e2e", LatencyJson(report.e2e))
      .AddRaw("ttft", LatencyJson(report.ttft))
      .AddRaw("inter_token", LatencyJson(report.inter_token))
      .AddRaw("queue_wait", LatencyJson(report.queue_wait));
  return out.Finish();
}

}  // namespace infuserki::obs
