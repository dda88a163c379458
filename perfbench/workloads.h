#ifndef INFUSERKI_PERFBENCH_WORKLOADS_H_
#define INFUSERKI_PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model/serve_adapter.h"
#include "model/transformer.h"
#include "perfbench/harness.h"
#include "text/tokenizer.h"

namespace infuserki::perfbench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // trace and per-layer table files
};

/// Everything one workload run measured and checked.
struct WorkloadReport {
  /// Correctness gates: each passed gate's name, and a message per failure.
  std::vector<std::string> gates_passed;
  std::vector<std::string> gate_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// The metrics every workload reports (BENCHMARK.json end_to_end).
  std::vector<Metric> end_to_end;
  /// The workload's own end-to-end metrics that apply to it, by name.
  std::vector<Metric> workload_metrics;
  /// Metrics withheld, with the reason (e.g. too few tail samples).
  std::vector<std::string> withheld;

  /// Traced run only: per-layer metrics by name, the per-span times of the
  /// traced window, and that window's length.
  std::map<std::string, double> per_layer;
  std::map<std::string, SpanTime> spans;
  double traced_window_s = 0.0;
  /// Time of threads that record no spans, from the registry (serving:
  /// the scheduler thread's forward and non-forward time).
  std::vector<std::pair<std::string, SpanTime>> thread_rows;

  /// Sets the metrics every workload reports (BENCHMARK.json end_to_end,
  /// in its order) and lists set-up time and memory first among the
  /// workload's own metrics. Peak RSS is read now.
  void SetEndToEnd(double setup_s, double latency_p50_ms,
                   double tokens_per_s) {
    end_to_end = {{"setup_s", setup_s, "s"},
                  {"peak_rss_mb", PeakRssMb(), "MB"},
                  {"latency_p50_ms", latency_p50_ms, "ms"},
                  {"tokens_per_s", tokens_per_s, "tok/s"}};
    workload_metrics.insert(workload_metrics.begin(), end_to_end.begin(),
                            end_to_end.begin() + 2);
  }

  /// Records one check; a gate run several times is listed once.
  void Gate(bool ok, const std::string& name, const std::string& detail) {
    if (ok) {
      if (std::find(gates_passed.begin(), gates_passed.end(), name) ==
          gates_passed.end()) {
        gates_passed.push_back(name);
      }
    } else {
      gate_failures.push_back(name + ": " + detail);
    }
  }
};

WorkloadReport RunServeChat(const RunOptions& options);
WorkloadReport RunServeBurst(const RunOptions& options);
WorkloadReport RunPaperPipeline(const RunOptions& options);

// -- Layer probes (traced run only; layer_probes.cc) ----------------------

/// One GEMM shape, [m, k] x [n, k]^T as tensor::MatmulNT computes it.
struct GemmShape {
  size_t m = 0;
  size_t n = 0;
  size_t k = 0;
};

/// One attention call: `q_rows` new queries over `kv_rows` keys.
struct AttentionShape {
  size_t q_rows = 0;
  size_t kv_rows = 0;
};

/// The GEMM and attention shapes one forward of `config` runs over
/// `rows` query rows with `kv_rows` visible keys per row.
void ForwardShapes(const model::TransformerConfig& config, size_t rows,
                   size_t kv_rows, std::vector<GemmShape>* gemms,
                   std::vector<AttentionShape>* attention);

/// Replays `gemms` and `attention` through tensor::MatmulNT and
/// tensor::CausalSelfAttention for about `seconds`, and records the
/// tensor.* rates into `out`. The window's GEMM flops and calls (counted
/// by the tensor layer itself) convert the replay's bytes-per-flop into
/// tensor.gemm_bytes for the window.
void ReplayTensorShapes(const std::vector<GemmShape>& gemms,
                        const std::vector<AttentionShape>& attention,
                        size_t num_heads, size_t dim, double seconds,
                        uint64_t window_gemm_flops,
                        std::map<std::string, double>* out);

/// Median batched decode step time with the adapter minus without it, in
/// ms, over identical `rows`-row decode steps (model.adapter_step_ms_delta).
double AdapterStepDeltaMs(const model::TransformerLM& lm,
                          const model::PositionWiseAdapter& adapter,
                          const std::vector<std::vector<int>>& prompts,
                          size_t steps);

/// Median microseconds of one text::Tokenizer::Encode over `texts`.
double EncodeP50Us(const text::Tokenizer& tokenizer,
                   const std::vector<std::string>& texts);

/// Copies the registry-derived counts every workload shares into `out`:
/// util.pool_* from the thread pool, model.* from the decode sessions.
void CollectCommonLayerMetrics(const obs::Registry::Snapshot& before,
                               const obs::Registry::Snapshot& after,
                               std::map<std::string, double>* out);

}  // namespace infuserki::perfbench

#endif  // INFUSERKI_PERFBENCH_WORKLOADS_H_
