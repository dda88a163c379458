// The repository benchmark: runs one workload (serve_chat, serve_burst or
// paper_pipeline) for one seed, checks its correctness gates, prints every
// metric by name with its unit, appends a result record with the
// environment stamp, and ends stdout with one JSON result line. With
// --trace=1 it also writes the spans and the per-layer table.
//
// Usage (run.py builds the binary and passes these):
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --out_dir=<dir> [--git_rev=<rev>]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"
#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "util/flags.h"
#include "util/logging.h"

namespace infuserki::perfbench {
namespace {

// Thread-pool width of the traced run (see Main).
constexpr int kTracedPoolWidth = 4;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric of the traced run (BENCHMARK.json per_layer). A
// workload that does not run a layer reports 0 for its metrics.
constexpr MetricSpec kPerLayer[] = {
    {"tensor.gemm_flops", "count"},
    {"tensor.gemm_calls", "count"},
    {"tensor.attention_flops", "count"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.attention_gflops", "GFLOP/s"},
    {"tensor.gemm_bytes", "bytes"},
    {"util.pool_tasks", "count"},
    {"util.pool_task_us_p50", "us"},
    {"util.pool_queue_wait_s", "s"},
    {"model.batched_step_ms_p50", "ms"},
    {"model.batched_step_ms_p99", "ms"},
    {"model.rows_per_step", "rows"},
    {"model.step_ms_per_row", "ms"},
    {"model.prefill_tokens", "count"},
    {"model.decode_tokens", "count"},
    {"model.prefill_ms_p50", "ms"},
    {"model.decode_step_ms_p50", "ms"},
    {"model.rewinds", "count"},
    {"model.cached_rows_reused", "count"},
    {"model.pretrain_s", "s"},
    {"model.pretrain_tokens_per_s", "tok/s"},
    {"model.train_step_ms_p50", "ms"},
    {"model.train_step_ms_p99", "ms"},
    {"model.train_steps", "count"},
    {"model.adapter_step_ms_delta", "ms"},
    {"kg.build_s", "s"},
    {"text.encode_us_p50", "us"},
    {"core.detection_s", "s"},
    {"core.train_s", "s"},
    {"core.train_infuser_s", "s"},
    {"core.train_qa_s", "s"},
    {"core.train_rc_s", "s"},
    {"eval.eval_s", "s"},
    {"eval.mcq_per_s", "1/s"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.admitted", "count"},
    {"serve.shed", "count"},
    {"serve.shed_queue_full", "count"},
    {"serve.shed_brownout", "count"},
    {"serve.shed_infeasible", "count"},
    {"serve.shed_rate_limited", "count"},
    {"serve.brownout_level_mean", "level"},
    {"serve.prefix_hit_ratio", "share"},
    {"serve.prefix_lookups", "count"},
    {"serve.prefix_evictions", "count"},
    {"serve.outside_forward_share", "share"},
    {"serve.requests_sent", "count"},
    {"serve.requests_ok", "count"},
    {"serve.requests_failed", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.unattributed_share", "share"},
    {"bench.gen_lag_p99_ms", "ms"},
};

/// The library layer a span belongs to: the benchmark names its own spans
/// "<layer>/<call>"; the library's spans map by their prefix.
std::string LayerOf(const std::string& span) {
  std::string prefix = span.substr(0, span.find('/'));
  if (prefix == "experiment") return "eval";
  if (prefix == "pretrain" || prefix == "trainer") return "model";
  if (prefix == "detection" || prefix == "infuserki") return "core";
  if (prefix == "method") {
    return span.size() >= 5 && span.compare(span.size() - 5, 5, "/eval") == 0
               ? "eval"
               : "core";
  }
  return prefix;
}

/// Writes the per-layer table to `out` as tab-separated text: one row per
/// span name of the traced window, by self time, then the unattributed
/// rest of the window, then the rows of threads that record no spans.
void WriteLayerTable(const WorkloadReport& report, double unattributed_s,
                     std::ostream& out) {
  const double window = report.traced_window_s;
  auto row = [&](const std::string& layer, const std::string& name,
                 const std::string& count, const std::string& total_ms,
                 double self_s) {
    out << layer << "\t" << name << "\t" << count << "\t" << total_ms
        << "\t" << FullNumber(self_s * 1e3) << "\t"
        << FullNumber(window > 0.0 ? self_s / window : 0.0) << "\n";
  };
  auto span_row = [&](const std::string& name, const SpanTime& time) {
    row(LayerOf(name), name, std::to_string(time.count),
        FullNumber(time.total_s * 1e3), time.self_s);
  };
  std::vector<std::pair<std::string, SpanTime>> rows(report.spans.begin(),
                                                     report.spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  out << "layer\tspan\tcount\ttotal_ms\tself_ms\tself_share\n";
  for (const auto& [name, time] : rows) span_row(name, time);
  row("-", "unattributed", "-", "-", unattributed_s);
  for (const auto& [name, time] : report.thread_rows) span_row(name, time);
}

std::string StringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + obs::JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

void PrintMetric(const Metric& metric) {
  std::printf("  %-28s %16.6g %s\n", metric.name.c_str(), metric.value,
              metric.unit.c_str());
}

int Main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  RunOptions options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 10.0);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.out_dir = flags.GetString("out_dir", ".bench_build/results");
  const std::string git_rev = flags.GetString("git_rev", "");
  if (options.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be > 0\n");
    return 2;
  }
  util::SetMinLogLevel(util::LogLevel::kWarning);
  // Thread-pool width, unless the caller sets one. The untraced runs, whose
  // end-to-end metrics are gated, use one thread: at these model sizes the
  // pool's tasks last microseconds, and on a shared 4-vCPU VM widths 2 and
  // 4 made one paper_pipeline take 4.6-12 s where one thread took 4.1-4.8 s.
  // The traced paper_pipeline run uses kTracedPoolWidth, so util.pool_*
  // measure the pool in training at a fixed width. The traced serving runs
  // keep one thread: at width 4 their step-level probes (adapter delta,
  // trace overhead) were dominated by pool noise. Must run before the
  // first use of the global pool.
  const bool wide_pool =
      options.trace && options.workload == "paper_pipeline";
  setenv("INFUSERKI_NUM_THREADS",
         wide_pool ? std::to_string(kTracedPoolWidth).c_str() : "1",
         /*overwrite=*/0);

  WorkloadReport report;
  if (options.workload == "serve_chat") {
    report = RunServeChat(options);
  } else if (options.workload == "serve_burst") {
    report = RunServeBurst(options);
  } else if (options.workload == "paper_pipeline") {
    report = RunPaperPipeline(options);
  } else {
    std::fprintf(stderr,
                 "unknown --workload=%s (want serve_chat, serve_burst or "
                 "paper_pipeline)\n",
                 options.workload.c_str());
    return 2;
  }
  const bool correct = report.gate_failures.empty();
  const EnvStamp env = CollectEnv(git_rev);

  std::vector<Metric> layer_metrics;
  double unattributed_s = 0.0;
  if (options.trace) {
    double attributed = 0.0;
    for (const auto& [name, time] : report.spans) attributed += time.self_s;
    unattributed_s = std::max(0.0, report.traced_window_s - attributed);
    report.per_layer["obs.unattributed_share"] =
        report.traced_window_s > 0.0 ? unattributed_s / report.traced_window_s
                                     : 0.0;
    for (const MetricSpec& spec : kPerLayer) {
      auto it = report.per_layer.find(spec.name);
      layer_metrics.push_back(
          {spec.name, it == report.per_layer.end() ? 0.0 : it->second,
           spec.unit});
    }
    for (const auto& [name, value] : report.per_layer) {
      CHECK(std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                        [&](const MetricSpec& spec) {
                          return name == spec.name;
                        }))
          << "per-layer metric " << name << " is not in kPerLayer";
    }
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("env: %s\n", EnvJson(env).c_str());
  std::printf("end-to-end metrics:\n");
  for (const Metric& metric : report.workload_metrics) PrintMetric(metric);
  for (const Metric& metric : report.end_to_end) {
    bool listed = std::any_of(
        report.workload_metrics.begin(), report.workload_metrics.end(),
        [&](const Metric& m) { return m.name == metric.name; });
    if (!listed) PrintMetric(metric);
  }
  for (const std::string& withheld : report.withheld) {
    std::printf("  withheld: %s\n", withheld.c_str());
  }
  std::printf("requests attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const std::string& gate : report.gates_passed) {
    std::printf("gate %s: ok\n", gate.c_str());
  }
  for (const std::string& failure : report.gate_failures) {
    std::printf("gate FAILED %s\n", failure.c_str());
  }

  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.out_dir.c_str(),
                 error.message().c_str());
  }
  const std::string base = options.out_dir + "/" + options.workload;
  if (options.trace) {
    std::printf("per-layer metrics:\n");
    for (const Metric& metric : layer_metrics) PrintMetric(metric);
    std::printf("per-layer table (self time of the traced window, %.3f s):\n",
                report.traced_window_s);
    WriteLayerTable(report, unattributed_s, std::cout);
    std::ofstream table(base + ".layers.tsv");
    WriteLayerTable(report, unattributed_s, table);
    if (obs::Tracer::Get().WriteChromeTrace(base + ".trace.json")) {
      std::printf("wrote %s.trace.json and %s.layers.tsv\n", base.c_str(),
                  base.c_str());
    }
  }

  obs::JsonWriter record;
  record.AddString("workload", options.workload)
      .AddUint("seed", options.seed)
      .AddNumber("seconds", options.seconds)
      .AddBool("trace", options.trace)
      .AddRaw("env", EnvJson(env))
      .AddBool("correct", correct)
      .AddUint("attempted", report.attempted)
      .AddUint("failed", report.failed)
      .AddRaw("gates_passed", StringList(report.gates_passed))
      .AddRaw("gate_failures", StringList(report.gate_failures))
      .AddRaw("end_to_end", MetricsJson(report.end_to_end))
      .AddRaw("workload_metrics", MetricsJson(report.workload_metrics))
      .AddRaw("withheld", StringList(report.withheld));
  if (options.trace) record.AddRaw("per_layer", MetricsJson(layer_metrics));
  std::ofstream(options.out_dir + "/results.ndjson", std::ios::app)
      << record.Finish() << "\n";

  std::printf("%s\n",
              ResultLine(correct, report.attempted, report.failed,
                         options.trace ? layer_metrics : report.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace infuserki::perfbench

int main(int argc, char** argv) {
  return infuserki::perfbench::Main(argc, argv);
}
