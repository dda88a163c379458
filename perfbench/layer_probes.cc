// Layer probes for the traced run: replays of the workload's kernel shapes
// through the public tensor ops, the adapter's share of a batched decode
// step, tokenizer encode time, and the registry-derived per-layer counts
// every workload shares.

#include <algorithm>
#include <chrono>
#include <vector>

#include "model/batched_session.h"
#include "perfbench/workloads.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace infuserki::perfbench {

void ForwardShapes(const model::TransformerConfig& config, size_t rows,
                   size_t kv_rows, std::vector<GemmShape>* gemms,
                   std::vector<AttentionShape>* attention) {
  const size_t d = config.dim;
  const size_t f = config.ffn_hidden;
  for (size_t layer = 0; layer < config.num_layers; ++layer) {
    for (int projection = 0; projection < 4; ++projection) {
      gemms->push_back({rows, d, d});  // wq, wk, wv, wo
    }
    gemms->push_back({rows, f, d});  // ffn_gate
    gemms->push_back({rows, f, d});  // ffn_up
    gemms->push_back({rows, d, f});  // ffn_down
    if (kv_rows == rows) {
      attention->push_back({rows, rows});  // one full sequence
    } else {
      for (size_t r = 0; r < rows; ++r) {
        attention->push_back({1, kv_rows});  // one decode row each
      }
    }
  }
  gemms->push_back({rows, config.vocab_size, d});  // tied output head
}

void ReplayTensorShapes(const std::vector<GemmShape>& gemms,
                        const std::vector<AttentionShape>& attention,
                        size_t num_heads, size_t dim, double seconds,
                        uint64_t window_gemm_flops,
                        std::map<std::string, double>* out) {
  tensor::NoGradGuard no_grad;
  util::Rng rng(7);
  struct GemmInput {
    tensor::Tensor a, b;
  };
  struct AttentionInput {
    tensor::Tensor q, k, v;
    size_t prefix = 0;
  };
  std::vector<GemmInput> gemm_inputs;
  double pass_bytes = 0.0;
  double pass_flops = 0.0;
  for (const GemmShape& shape : gemms) {
    gemm_inputs.push_back({tensor::Tensor::Randn({shape.m, shape.k}, &rng),
                           tensor::Tensor::Randn({shape.n, shape.k}, &rng)});
    pass_bytes += 4.0 * static_cast<double>(shape.m * shape.k +
                                            shape.n * shape.k +
                                            shape.m * shape.n);
    pass_flops += 2.0 * static_cast<double>(shape.m * shape.n * shape.k);
  }
  std::vector<AttentionInput> attention_inputs;
  for (const AttentionShape& shape : attention) {
    attention_inputs.push_back(
        {tensor::Tensor::Randn({shape.q_rows, dim}, &rng),
         tensor::Tensor::Randn({shape.kv_rows, dim}, &rng),
         tensor::Tensor::Randn({shape.kv_rows, dim}, &rng),
         shape.kv_rows - shape.q_rows});
  }

  obs::Registry& registry = obs::Registry::Get();
  obs::Registry::Snapshot before = registry.TakeSnapshot();
  double gemm_s = 0.0;
  double attention_s = 0.0;
  Clock::time_point start = Clock::now();
  do {
    Clock::time_point t0 = Clock::now();
    for (const GemmInput& input : gemm_inputs) {
      tensor::Tensor result = tensor::MatmulNT(input.a, input.b);
    }
    Clock::time_point t1 = Clock::now();
    for (const AttentionInput& input : attention_inputs) {
      tensor::Tensor result = tensor::CausalSelfAttention(
          input.q, input.k, input.v, num_heads, input.prefix);
    }
    gemm_s += std::chrono::duration<double>(t1 - t0).count();
    attention_s += SecondsSince(t1);
  } while (SecondsSince(start) < seconds);
  obs::Registry::Snapshot after = registry.TakeSnapshot();

  double gemm_flops =
      static_cast<double>(CounterDelta(before, after, "tensor/gemm_flops"));
  double attention_flops = static_cast<double>(
      CounterDelta(before, after, "tensor/attention_flops"));
  (*out)["tensor.gemm_gflops"] = gemm_s > 0.0 ? gemm_flops / gemm_s / 1e9 : 0.0;
  (*out)["tensor.attention_gflops"] =
      attention_s > 0.0 ? attention_flops / attention_s / 1e9 : 0.0;
  (*out)["tensor.gemm_bytes"] =
      pass_flops > 0.0
          ? static_cast<double>(window_gemm_flops) * pass_bytes / pass_flops
          : 0.0;
}

double AdapterStepDeltaMs(const model::TransformerLM& lm,
                          const model::PositionWiseAdapter& adapter,
                          const std::vector<std::vector<int>>& prompts,
                          size_t steps) {
  const size_t rows = prompts.size();
  model::BatchedDecodeSession base(lm, rows);
  model::BatchedDecodeSession adapted(lm, rows);
  auto prefill = [&](model::BatchedDecodeSession* session,
                     const model::PositionWiseAdapter* with) {
    std::vector<model::BatchedDecodeSession::RowInput> inputs;
    for (const std::vector<int>& prompt : prompts) {
      inputs.push_back({session->AcquireSlot(), prompt, with});
    }
    session->Step(inputs);
    for (auto& input : inputs) input.tokens = {text::kUnkId + 1};
    return inputs;
  };
  std::vector<model::BatchedDecodeSession::RowInput> base_rows =
      prefill(&base, nullptr);
  std::vector<model::BatchedDecodeSession::RowInput> adapted_rows =
      prefill(&adapted, &adapter);
  size_t longest = 0;
  for (const std::vector<int>& prompt : prompts) {
    longest = std::max(longest, prompt.size());
  }
  steps = std::min(steps, lm.config().max_seq_len - longest);
  // Alternate the two sessions step by step so machine noise hits both.
  std::vector<double> base_ms;
  std::vector<double> adapted_ms;
  for (size_t step = 0; step < steps; ++step) {
    Clock::time_point t0 = Clock::now();
    base.Step(base_rows);
    Clock::time_point t1 = Clock::now();
    adapted.Step(adapted_rows);
    base_ms.push_back(std::chrono::duration<double>(t1 - t0).count() * 1e3);
    adapted_ms.push_back(SecondsSince(t1) * 1e3);
  }
  return Median(adapted_ms) - Median(base_ms);
}

double EncodeP50Us(const text::Tokenizer& tokenizer,
                   const std::vector<std::string>& texts) {
  std::vector<double> micros;
  micros.reserve(texts.size());
  for (const std::string& text : texts) {
    Clock::time_point t0 = Clock::now();
    std::vector<int> ids = tokenizer.Encode(text);
    micros.push_back(SecondsSince(t0) * 1e6);
  }
  return NearestRank(micros, 0.5);
}

void CollectCommonLayerMetrics(const obs::Registry::Snapshot& before,
                               const obs::Registry::Snapshot& after,
                               std::map<std::string, double>* out) {
  auto count = [&](const char* name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  auto quantile_ms = [&](const char* name, double q) {
    return obs::HistogramQuantile(HistogramDelta(before, after, name), q) *
           1e3;
  };
  std::map<std::string, double>& m = *out;

  obs::HistogramStats task = HistogramDelta(before, after,
                                            "threadpool/task_seconds");
  m["util.pool_tasks"] = count("threadpool/tasks_completed");
  m["util.pool_task_us_p50"] = obs::HistogramQuantile(task, 0.5) * 1e6;
  m["util.pool_queue_wait_s"] =
      HistogramDelta(before, after, "threadpool/queue_wait_seconds").sum;

  obs::HistogramStats step = HistogramDelta(before, after,
                                            "engine/batched_step_seconds");
  double batched_rows = count("engine/batched_rows");
  double batched_steps = count("engine/batched_steps");
  m["model.batched_step_ms_p50"] = obs::HistogramQuantile(step, 0.5) * 1e3;
  m["model.batched_step_ms_p99"] = obs::HistogramQuantile(step, 0.99) * 1e3;
  m["model.rows_per_step"] =
      batched_steps > 0.0 ? batched_rows / batched_steps : 0.0;
  m["model.step_ms_per_row"] =
      batched_rows > 0.0 ? step.sum * 1e3 / batched_rows : 0.0;
  m["model.prefill_tokens"] = count("engine/prefill_tokens");
  m["model.decode_tokens"] = count("engine/decode_tokens");
  m["model.prefill_ms_p50"] = quantile_ms("engine/prefill_seconds", 0.5);
  m["model.decode_step_ms_p50"] =
      quantile_ms("engine/decode_step_seconds", 0.5);
  m["model.rewinds"] = count("engine/rewinds");
  m["model.cached_rows_reused"] = count("engine/cached_rows_reused");
  m["model.train_step_ms_p50"] = quantile_ms("trainer/step_seconds", 0.5);
  m["model.train_step_ms_p99"] = quantile_ms("trainer/step_seconds", 0.99);
  m["model.train_steps"] = count("trainer/steps");

  m["tensor.gemm_flops"] = count("tensor/gemm_flops");
  m["tensor.gemm_calls"] = count("tensor/gemm_calls");
  m["tensor.attention_flops"] = count("tensor/attention_flops");
}

}  // namespace infuserki::perfbench
