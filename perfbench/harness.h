#ifndef INFUSERKI_PERFBENCH_HARNESS_H_
#define INFUSERKI_PERFBENCH_HARNESS_H_

// Workload-independent logic of the repository benchmark: percentiles and
// the tail-sample rule, SLO attainment, the seeded open-loop arrival
// schedule, span self-time attribution, the environment stamp and the
// one-line result record. Kept apart from the workloads so the unit tests
// can check it without building a model.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace infuserki::perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds of wall time since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile of `samples` (q in [0, 1]): the sample at rank
/// ceil(q * n), clamped to [1, n]. This is the rank convention of
/// obs::HistogramQuantile, so a value read from a registry histogram and
/// one computed here describe the same sample. Returns 0 for no samples.
double NearestRank(std::vector<double> samples, double q);

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail is one or two unlucky samples.
inline constexpr size_t kMinSamplesBeyond = 10;

/// True when `n` samples leave at least kMinSamplesBeyond beyond the
/// nearest rank of quantile `q`.
bool PercentileSupported(size_t n, double q);

/// What the client saw of one request it sent.
struct RequestOutcome {
  bool ok = false;       // served; shed, failed, expired or cancelled = false
  double ttft_ms = 0.0;  // from the (scheduled) send to the first token
  double itl_ms = 0.0;   // mean gap between this request's output tokens
};

/// Latency limits of the serving SLO.
struct SloLimits {
  double ttft_ms = 0.0;
  double itl_ms = 0.0;
};

/// Share of the requests sent that were served within both limits. A
/// request that was not served counts as a miss whatever its timings.
double SloAttainment(const std::vector<RequestOutcome>& outcomes,
                     const SloLimits& limits);

/// Draws ranks 0..n-1 with P(k) proportional to 1 / (k + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  /// Maps a uniform draw u in [0, 1) to a rank.
  size_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
};

/// Open-loop burst traffic: `burst_size` requests arrive together at the
/// start of each burst, and bursts come one per slot of length
/// burst_size / mean_rate_qps, at a seeded offset within the first half of
/// the slot. The arrival count is fixed by (seconds, rate, burst size), so
/// every seed offers the same load in a different shape. Every arrival
/// draws its tenant uniformly and its prompt Zipf-distributed from the
/// pool.
struct BurstSpec {
  double seconds = 10.0;
  double mean_rate_qps = 100.0;
  size_t burst_size = 32;
  size_t tenants = 3;
  size_t pool_size = 32;
  double zipf_s = 1.1;
};

struct Arrival {
  double at_s = 0.0;  // scheduled send time, seconds from the window start
  size_t tenant = 0;
  size_t prompt = 0;  // index into the prompt pool
};

/// The arrival schedule for `seed`. Deterministic in (spec, seed).
std::vector<Arrival> BurstSchedule(const BurstSpec& spec, uint64_t seed);

/// Smallest gap between consecutive distinct arrival times, i.e. between
/// bursts (0 when all arrivals share one time).
double MinInterArrivalGap(const std::vector<Arrival>& schedule);

/// Count and time of every span sharing one name. Self time is the span's
/// duration minus the part covered by its direct child spans (spans one
/// level deeper on the same thread, inside its interval).
struct SpanTime {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTime> SpanSelfTimes(
    const std::vector<obs::SpanEvent>& events);

/// Describes the machine and build a result was measured on.
struct EnvStamp {
  std::string git_rev;
  std::string build_type;
  std::string compiler;
  size_t pool_threads = 0;
  size_t nproc = 0;
  std::string cpu_model;
};
EnvStamp CollectEnv(const std::string& git_rev);
std::string EnvJson(const EnvStamp& env);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `metrics` as one JSON object: {"<name>": {"value": v, "unit": u}, ...}.
std::string MetricsJson(const std::vector<Metric>& metrics);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Formats a double with every significant digit (non-finite -> 0).
std::string FullNumber(double value);

/// Delta of histogram `name` between two registry snapshots.
obs::HistogramStats HistogramDelta(const obs::Registry::Snapshot& before,
                                   const obs::Registry::Snapshot& after,
                                   const std::string& name);

/// Delta of counter `name` between two registry snapshots.
uint64_t CounterDelta(const obs::Registry::Snapshot& before,
                      const obs::Registry::Snapshot& after,
                      const std::string& name);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

}  // namespace infuserki::perfbench

#endif  // INFUSERKI_PERFBENCH_HARNESS_H_
