#include "perfbench/harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/json.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace infuserki::perfbench {

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return samples[rank - 1];
}

bool PercentileSupported(size_t n, double q) {
  if (n == 0) return false;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return n - rank >= kMinSamplesBeyond;
}

double SloAttainment(const std::vector<RequestOutcome>& outcomes,
                     const SloLimits& limits) {
  if (outcomes.empty()) return 0.0;
  size_t met = 0;
  for (const RequestOutcome& outcome : outcomes) {
    if (outcome.ok && outcome.ttft_ms <= limits.ttft_ms &&
        outcome.itl_ms <= limits.itl_ms) {
      ++met;
    }
  }
  return static_cast<double>(met) / static_cast<double>(outcomes.size());
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(std::max<size_t>(n, 1)) {
  double total = 0.0;
  for (size_t k = 0; k < cdf_.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& value : cdf_) value /= total;
}

size_t ZipfSampler::Sample(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

std::vector<Arrival> BurstSchedule(const BurstSpec& spec, uint64_t seed) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xB5);
  ZipfSampler zipf(spec.pool_size, spec.zipf_s);
  const size_t burst = std::max<size_t>(spec.burst_size, 1);
  const double slot = static_cast<double>(burst) / spec.mean_rate_qps;
  const size_t bursts = std::max<size_t>(
      1, static_cast<size_t>(std::floor(spec.seconds / slot)));
  std::vector<Arrival> schedule;
  schedule.reserve(bursts * burst);
  for (size_t b = 0; b < bursts; ++b) {
    const double at = (static_cast<double>(b) + rng.Uniform(0.0, 0.5)) * slot;
    for (size_t k = 0; k < burst; ++k) {
      Arrival arrival;
      arrival.at_s = at;
      arrival.tenant = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(spec.tenants) - 1));
      arrival.prompt = zipf.Sample(rng.Uniform(0.0, 1.0));
      schedule.push_back(arrival);
    }
  }
  return schedule;
}

double MinInterArrivalGap(const std::vector<Arrival>& schedule) {
  double gap = 0.0;
  for (size_t i = 1; i < schedule.size(); ++i) {
    double step = schedule[i].at_s - schedule[i - 1].at_s;
    if (step > 0.0 && (gap == 0.0 || step < gap)) gap = step;
  }
  return gap;
}

std::map<std::string, SpanTime> SpanSelfTimes(
    const std::vector<obs::SpanEvent>& events) {
  // Per thread, spans nest: sorting by (begin, depth) puts every parent
  // before its children, and a stack of open spans yields each span's
  // direct parent.
  std::map<uint32_t, std::vector<const obs::SpanEvent*>> by_thread;
  for (const obs::SpanEvent& event : events) {
    by_thread[event.tid].push_back(&event);
  }
  std::map<std::string, SpanTime> out;
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanEvent* a, const obs::SpanEvent* b) {
                if (a->begin_us != b->begin_us) return a->begin_us < b->begin_us;
                return a->depth < b->depth;
              });
    std::vector<int64_t> child_us(spans.size(), 0);
    std::vector<size_t> open;
    for (size_t i = 0; i < spans.size(); ++i) {
      const obs::SpanEvent& span = *spans[i];
      while (!open.empty() &&
             (spans[open.back()]->end_us <= span.begin_us ||
              spans[open.back()]->depth >= span.depth)) {
        open.pop_back();
      }
      if (!open.empty() && spans[open.back()]->depth + 1 == span.depth) {
        child_us[open.back()] += span.end_us - span.begin_us;
      }
      open.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const obs::SpanEvent& span = *spans[i];
      SpanTime& time = out[span.name];
      int64_t duration = span.end_us - span.begin_us;
      ++time.count;
      time.total_s += static_cast<double>(duration) * 1e-6;
      time.self_s +=
          static_cast<double>(std::max<int64_t>(duration - child_us[i], 0)) *
          1e-6;
    }
  }
  return out;
}

EnvStamp CollectEnv(const std::string& git_rev) {
  EnvStamp env;
  env.git_rev = git_rev.empty() ? "unknown" : git_rev;
#ifdef PERFBENCH_BUILD_TYPE
  env.build_type = PERFBENCH_BUILD_TYPE;
#else
  env.build_type = "unknown";
#endif
#if defined(__clang__)
  env.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  env.compiler = std::string("gcc ") + __VERSION__;
#else
  env.compiler = "unknown";
#endif
  env.pool_threads = util::GlobalThreadPool().num_threads();
  long online = sysconf(_SC_NPROCESSORS_ONLN);
  env.nproc = online > 0 ? static_cast<size_t>(online) : 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        env.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (env.cpu_model.empty()) env.cpu_model = "unknown";
  return env;
}

std::string EnvJson(const EnvStamp& env) {
  obs::JsonWriter out;
  out.AddString("git_rev", env.git_rev)
      .AddString("build_type", env.build_type)
      .AddString("compiler", env.compiler)
      .AddUint("pool_threads", env.pool_threads)
      .AddUint("nproc", env.nproc)
      .AddString("cpu_model", env.cpu_model);
  return out.Finish();
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string FullNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  obs::JsonWriter out;
  for (const Metric& metric : metrics) {
    obs::JsonWriter value;
    value.AddRaw("value", FullNumber(metric.value))
        .AddString("unit", metric.unit);
    out.AddRaw(metric.name, value.Finish());
  }
  return out.Finish();
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  obs::JsonWriter out;
  out.AddBool("correct", correct)
      .AddUint("attempted", attempted)
      .AddUint("failed", failed)
      .AddRaw("metrics", MetricsJson(metrics));
  return out.Finish();
}

obs::HistogramStats HistogramDelta(const obs::Registry::Snapshot& before,
                                   const obs::Registry::Snapshot& after,
                                   const std::string& name) {
  auto after_it = after.histograms.find(name);
  if (after_it == after.histograms.end()) return obs::HistogramStats{};
  auto before_it = before.histograms.find(name);
  if (before_it == before.histograms.end()) return after_it->second;
  return obs::SubtractHistogramStats(after_it->second, before_it->second);
}

uint64_t CounterDelta(const obs::Registry::Snapshot& before,
                      const obs::Registry::Snapshot& after,
                      const std::string& name) {
  auto after_it = after.counters.find(name);
  if (after_it == after.counters.end()) return 0;
  auto before_it = before.counters.find(name);
  uint64_t base = before_it == before.counters.end() ? 0 : before_it->second;
  return after_it->second - base;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace infuserki::perfbench
