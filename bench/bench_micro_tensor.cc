// Engineering micro-benchmarks (google-benchmark) for the tensor/autograd
// substrate: the per-op costs that dominate experiment wall-clock, plus the
// serving layer's batched-vs-sequential throughput (BM_ServeFlood) and the
// two largest costs of serve_chat's set-up (BM_McqBuildAll,
// BM_TokenizerBuild).
//
// Accepts --metrics_out=<path> / --trace_out=<path> in addition to the
// standard google-benchmark flags; they are stripped from argv before
// benchmark::Initialize (which rejects flags it does not know).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "kg/mcq.h"
#include "kg/synth.h"
#include "kg/templates.h"
#include "model/batched_session.h"
#include "model/pretrain.h"
#include "model/transformer.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tests/gemm_reference.h"
#include "tests/mcq_corpus.h"
#include "text/tokenizer.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace infuserki::tensor {
namespace {

void BM_MatmulNT(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatmulNT(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_MatmulNT)->Arg(64)->Arg(128)->Arg(256);

/// The model's forward GEMM shapes, C[m,n] += X[m,k] * W[n,k]^T: the
/// attention projections (64x64), FFN up (128x64) and down (64x128), and the
/// tied vocabulary head (3100x64), at one decode row and at a batch of 8.
/// BM_GemmNT runs the kernel, BM_GemmNTReference the scalar loops it
/// replaced; scripts/check_build.sh gates their ratio at pool width 1.
template <bool kReference>
void GemmNTShape(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t n = static_cast<size_t>(state.range(1));
  size_t k = static_cast<size_t>(state.range(2));
  util::Rng rng(7);
  Tensor x = Tensor::Randn({m, k}, &rng);
  Tensor w = Tensor::Randn({n, k}, &rng);
  std::vector<float> c(m * n, 0.0f);
  for (auto _ : state) {
    if (kReference) {
      testing::GemmNTAcc(x.data(), w.data(), c.data(), m, k, n);
    } else {
      GemmNT(x.data(), w.data(), c.data(), m, k, n);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m * n * k));
}

void GemmShapes(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"m", "n", "k"});
  const int64_t shapes[][2] = {{64, 64}, {128, 64}, {64, 128}, {3100, 64}};
  for (int64_t m : {1, 8}) {
    for (const auto& shape : shapes) bench->Args({m, shape[0], shape[1]});
  }
}

void BM_GemmNT(benchmark::State& state) {
  GemmNTShape<false>(state);
}
BENCHMARK(BM_GemmNT)->Apply(GemmShapes);

void BM_GemmNTReference(benchmark::State& state) {
  GemmNTShape<true>(state);
}
BENCHMARK(BM_GemmNTReference)->Apply(GemmShapes);

void BM_Softmax(benchmark::State& state) {
  util::Rng rng(2);
  Tensor a = Tensor::Randn({64, 512}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(a));
  }
}
BENCHMARK(BM_Softmax);

void BM_CausalSelfAttention(benchmark::State& state) {
  size_t t = static_cast<size_t>(state.range(0));
  util::Rng rng(3);
  Tensor q = Tensor::Randn({t, 64}, &rng);
  Tensor k = Tensor::Randn({t, 64}, &rng);
  Tensor v = Tensor::Randn({t, 64}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CausalSelfAttention(q, k, v, 4));
  }
}
BENCHMARK(BM_CausalSelfAttention)->Arg(16)->Arg(64);

/// Times `loss.Backward()` alone (manual time): the forward that records the
/// graph and the ZeroGrad calls between iterations are left out.
template <typename MakeLoss>
void TimeBackward(benchmark::State& state, const std::vector<Tensor>& inputs,
                  MakeLoss make_loss) {
  for (auto _ : state) {
    Tensor loss = make_loss();
    auto start = std::chrono::steady_clock::now();
    loss.Backward();
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(elapsed.count());
    for (const Tensor& input : inputs) input.ZeroGrad();
  }
}

/// The attention backward at the model's shape (dim 64, 4 heads, dh 16)
/// for T query rows, behind SumAll(Mul(out, w)) so dO is not constant.
void BM_CausalSelfAttentionBackward(benchmark::State& state) {
  size_t t = static_cast<size_t>(state.range(0));
  util::Rng rng(3);
  Tensor q = Tensor::Randn({t, 64}, &rng, 1.0f, true);
  Tensor k = Tensor::Randn({t, 64}, &rng, 1.0f, true);
  Tensor v = Tensor::Randn({t, 64}, &rng, 1.0f, true);
  Tensor w = Tensor::Randn({t, 64}, &rng);
  TimeBackward(state, {q, k, v}, [&] {
    return SumAll(Mul(CausalSelfAttention(q, k, v, 4), w));
  });
}
BENCHMARK(BM_CausalSelfAttentionBackward)->Arg(16)->Arg(64)->UseManualTime();

/// A Linear bias add, x[rows, 128] + b[128], with both operands requiring
/// grad: the bias gradient sums the upstream gradient over rows.
void BM_AddBiasBackward(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  util::Rng rng(8);
  Tensor x = Tensor::Randn({rows, 128}, &rng, 1.0f, true);
  Tensor b = Tensor::Randn({128}, &rng, 1.0f, true);
  TimeBackward(state, {x, b}, [&] { return SumAll(Add(x, b)); });
}
BENCHMARK(BM_AddBiasBackward)->Arg(64)->UseManualTime();

void BM_LmForward(benchmark::State& state) {
  model::TransformerConfig config;
  config.vocab_size = 1000;
  config.dim = 64;
  config.num_layers = 8;
  config.num_heads = 4;
  config.ffn_hidden = 128;
  util::Rng rng(4);
  model::TransformerLM lm(config, &rng);
  std::vector<int> tokens(32, 5);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.Logits(tokens));
  }
}
BENCHMARK(BM_LmForward);

model::TransformerConfig BenchLmConfig() {
  model::TransformerConfig config;
  config.vocab_size = 1000;
  config.dim = 64;
  config.num_layers = 8;
  config.num_heads = 4;
  config.ffn_hidden = 128;
  return config;
}

/// Pre-engine decode: one full-sequence forward per generated token.
void BM_LmDecodeUncached(benchmark::State& state) {
  util::Rng rng(6);
  model::TransformerLM lm(BenchLmConfig(), &rng);
  size_t target = static_cast<size_t>(state.range(0));
  NoGradGuard no_grad;
  for (auto _ : state) {
    std::vector<int> sequence(8, 5);
    while (sequence.size() < target) {
      benchmark::DoNotOptimize(lm.Logits(sequence));
      sequence.push_back(5);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(target - 8));
}
BENCHMARK(BM_LmDecodeUncached)->Arg(32)->Arg(96);

/// KV-cached decode: prefill once, then single-token incremental steps.
void BM_LmDecodeCached(benchmark::State& state) {
  util::Rng rng(6);
  model::TransformerLM lm(BenchLmConfig(), &rng);
  size_t target = static_cast<size_t>(state.range(0));
  NoGradGuard no_grad;
  for (auto _ : state) {
    model::BatchedDecodeSession session(lm, 1);
    size_t slot = session.AcquireSlot();
    std::vector<int> prompt(8, 5);
    benchmark::DoNotOptimize(session.Step({{slot, prompt}}));
    for (size_t t = prompt.size(); t < target; ++t) {
      benchmark::DoNotOptimize(session.Step({{slot, {5}}}));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(target - 8));
}
BENCHMARK(BM_LmDecodeCached)->Arg(32)->Arg(96);

void BM_LmTrainStep(benchmark::State& state) {
  model::TransformerConfig config;
  config.vocab_size = 1000;
  config.dim = 64;
  config.num_layers = 8;
  config.num_heads = 4;
  config.ffn_hidden = 128;
  util::Rng rng(5);
  model::TransformerLM lm(config, &rng);
  std::vector<int> tokens(32, 5);
  for (auto _ : state) {
    Tensor loss = lm.NextTokenLoss(tokens);
    loss.Backward();
    for (Tensor& p : lm.Parameters()) p.ZeroGrad();
  }
}
BENCHMARK(BM_LmTrainStep);

/// The MCQ distractor rule over a whole synthetic UMLS KG of range(0)
/// triplets, as serve_chat's set-up runs it (template 1, seed 1). The KG is
/// built outside the timed loop.
void BM_McqBuildAll(benchmark::State& state) {
  kg::SynthOptions synth;
  synth.num_triplets = static_cast<size_t>(state.range(0));
  synth.seed = 1;
  kg::KnowledgeGraph graph = kg::SyntheticUmls(synth);
  kg::TemplateEngine templates;
  kg::McqBuilder builder(&graph, &templates);
  for (auto _ : state) {
    util::Rng rng(2);
    std::vector<kg::Mcq> mcqs = builder.BuildAll(/*template_id=*/1, &rng);
    benchmark::DoNotOptimize(mcqs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_McqBuildAll)->Arg(2400)->Unit(benchmark::kMillisecond);

/// Tokenizer::Build over the MCQ prompts of range(0) triplets (seed 1), the
/// vocabulary serve_chat's set-up builds.
void BM_TokenizerBuild(benchmark::State& state) {
  size_t triplets = static_cast<size_t>(state.range(0));
  const std::vector<std::string> corpus = testing::McqCorpus(triplets, 1);
  for (auto _ : state) {
    text::Tokenizer tokenizer = text::Tokenizer::Build(corpus);
    benchmark::DoNotOptimize(tokenizer.vocab_size());
  }
}
BENCHMARK(BM_TokenizerBuild)->Arg(2400)->Unit(benchmark::kMillisecond);

/// Continuous-batching throughput: floods one InferenceServer with 256
/// requests over eight short prompts on a tiny untrained model (dim 8, one
/// layer; serving cost does not depend on weight values) and times
/// submit-to-last-response at max_batch_rows = range(0). Model and server
/// set-up and shutdown stay outside the timed loop. scripts/check_build.sh
/// gates the width-1 time over the width-8 time of the same run at >= 2x.
/// Every request must be served: a shed or failed one would flatter the
/// wider round, so the benchmark reports an error instead.
void BM_ServeFlood(benchmark::State& state) {
  constexpr size_t kRequests = 256;
  constexpr size_t kMaxNew = 16;
  const std::vector<std::string> corpus = {
      "alpha beta gamma delta epsilon zeta eta theta iota kappa",
      "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi",
  };
  const std::vector<std::string> prompts = {
      "alpha beta gamma",
      "lambda mu nu xi",
      "sigma tau upsilon phi chi",
      "theta iota kappa lambda mu nu",
      "epsilon zeta",
      "pi rho sigma",
      "chi phi upsilon tau",
      "beta delta zeta theta kappa",
  };
  text::Tokenizer tokenizer = text::Tokenizer::Build(corpus);
  model::TransformerConfig config;
  config.vocab_size = tokenizer.vocab_size();
  config.dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_hidden = config.dim * 2;
  config.max_seq_len = 48;
  util::Rng rng(17);
  model::TransformerLM lm(config, &rng);

  serve::ServeOptions options;
  options.max_batch_rows = static_cast<size_t>(state.range(0));
  options.max_batch_tokens = 256;
  options.queue_capacity = 512;
  options.kv_budget_tokens = 64;
  options.default_max_new_tokens = kMaxNew;
  options.retry = {.max_attempts = 3, .base_delay_ms = 1};
  serve::InferenceServer server(lm, tokenizer, options);
  size_t served = 0;
  for (auto _ : state) {
    std::vector<std::future<serve::Response>> pending;
    pending.reserve(kRequests);
    for (size_t k = 0; k < kRequests; ++k) {
      pending.push_back(server.Submit({prompts[k % prompts.size()], kMaxNew}));
    }
    for (std::future<serve::Response>& future : pending) {
      if (future.get().status.ok()) ++served;
    }
  }
  server.Shutdown();
  state.SetItemsProcessed(static_cast<int64_t>(served));
  if (served != kRequests * static_cast<size_t>(state.iterations())) {
    state.SkipWithError("not every flood request was served");
  }
}
BENCHMARK(BM_ServeFlood)
    ->Arg(1)
    ->Arg(8)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Head-to-head cached vs. uncached decode at max_seq_len, run outside the
/// google-benchmark harness so the numbers land in the obs registry (and
/// thus the --metrics_out manifest) as engine/bench_* gauges. Prints a
/// "decode_speedup=<x>" line that scripts/check_build.sh asserts on.
void RunDecodeCompare() {
  model::TransformerConfig config = BenchLmConfig();
  util::Rng rng(6);
  model::TransformerLM lm(config, &rng);
  NoGradGuard no_grad;
  const size_t prompt_len = 8;
  const size_t target = config.max_seq_len;
  const std::vector<int> prompt(prompt_len, 5);
  const size_t new_tokens = target - prompt_len;

  // Warm both paths once (thread pool spin-up, allocator warm-up).
  benchmark::DoNotOptimize(lm.Logits(prompt));
  {
    model::BatchedDecodeSession warm(lm, 1);
    size_t slot = warm.AcquireSlot();
    benchmark::DoNotOptimize(warm.Step({{slot, prompt}}));
    benchmark::DoNotOptimize(warm.Step({{slot, {5}}}));
  }

  // Pre-engine path: one full-sequence forward per generated token.
  double uncached_seconds;
  {
    std::vector<int> sequence = prompt;
    util::Stopwatch watch;
    while (sequence.size() < target) {
      benchmark::DoNotOptimize(lm.Logits(sequence));
      sequence.push_back(5);
    }
    uncached_seconds = watch.ElapsedSeconds();
  }

  // Engine path: prefill once, then single-token incremental steps.
  double cached_seconds;
  double prefill_seconds;
  {
    model::BatchedDecodeSession session(lm, 1);
    size_t slot = session.AcquireSlot();
    util::Stopwatch watch;
    benchmark::DoNotOptimize(session.Step({{slot, prompt}}));
    prefill_seconds = watch.ElapsedSeconds();
    for (size_t t = prompt_len; t < target; ++t) {
      benchmark::DoNotOptimize(session.Step({{slot, {5}}}));
    }
    cached_seconds = watch.ElapsedSeconds();
  }

  double speedup = uncached_seconds / cached_seconds;
  double cached_tps = static_cast<double>(new_tokens) / cached_seconds;
  double uncached_tps = static_cast<double>(new_tokens) / uncached_seconds;
  obs::Registry& registry = obs::Registry::Get();
  registry.GetGauge("engine/bench_uncached_decode_seconds")
      ->Set(uncached_seconds);
  registry.GetGauge("engine/bench_cached_decode_seconds")
      ->Set(cached_seconds);
  registry.GetGauge("engine/bench_cached_prefill_seconds")
      ->Set(prefill_seconds);
  registry.GetGauge("engine/bench_decode_speedup")->Set(speedup);
  registry.GetGauge("engine/bench_cached_tokens_per_second")
      ->Set(cached_tps);
  registry.GetGauge("engine/bench_uncached_tokens_per_second")
      ->Set(uncached_tps);
  std::printf(
      "decode_compare: seq_len=%zu new_tokens=%zu uncached=%.4fs "
      "cached=%.4fs (prefill %.4fs) uncached_tok_s=%.1f cached_tok_s=%.1f\n",
      target, new_tokens, uncached_seconds, cached_seconds, prefill_seconds,
      uncached_tps, cached_tps);
  std::printf("decode_speedup=%.2f\n", speedup);
}

/// Crash/resume smoke harness for scripts/check_build.sh. Runs a tiny
/// pretraining job with checkpointing under `dir`. A first invocation with
/// INFUSERKI_FAULTS="trainer/step=crash@60" dies mid-run (exit 42); a
/// second invocation resumes from the newest snapshot; a third with a
/// fresh dir trains uninterrupted. All three print a CRC over the final
/// parameters — the resumed and uninterrupted runs must match bit-exactly.
int RunResumeSmoke(const std::string& dir) {
  model::PretrainSpec spec;
  spec.arch.dim = 16;
  spec.arch.num_layers = 2;
  spec.arch.num_heads = 2;
  spec.arch.ffn_hidden = 32;
  spec.plain_docs = {
      "the infuser gate decides which adapter outputs pass through",
      "knowledge integration adds new facts without erasing old ones",
      "a transformer block mixes attention and feed forward layers",
      "checkpoints make long training runs survive sudden crashes",
      "the optimizer keeps first and second moment estimates per weight",
      "atomic renames publish files completely or not at all",
  };
  spec.steps = 120;
  spec.batch_size = 4;
  spec.lr = 1e-3f;
  spec.seed = 11;
  spec.cache_dir = "";  // always train; the point is the training loop
  spec.checkpoint = {.dir = dir, .every_n_steps = 20, .keep_last = 3};
  model::PretrainedModel model = model::PretrainOrLoad(spec);

  uint32_t crc = 0;
  for (const Tensor& p : model.lm->Parameters()) {
    crc = infuserki::util::Crc32(p.data(), p.size() * sizeof(float), crc);
  }
  double resume_step =
      obs::Registry::Get().GetGauge("trainer/resume_step")->Value();
  std::printf("resume_smoke_resume_step=%d\n",
              static_cast<int>(resume_step));
  std::printf("resume_smoke_params_crc=%08x\n", crc);
  return 0;
}

}  // namespace
}  // namespace infuserki::tensor

namespace {

/// Pulls `--<name>=<value>` out of argv (compacting it) and returns the
/// value, or "" if the flag is absent.
std::string TakeFlag(int* argc, char** argv, const char* name) {
  std::string prefix = std::string("--") + name + "=";
  std::string value;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      value = argv[i] + prefix.size();
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string resume_smoke_dir = TakeFlag(&argc, argv, "resume_smoke_dir");
  if (!resume_smoke_dir.empty()) {
    return infuserki::tensor::RunResumeSmoke(resume_smoke_dir);
  }
  std::string metrics_out = TakeFlag(&argc, argv, "metrics_out");
  std::string trace_out = TakeFlag(&argc, argv, "trace_out");
  // Boolean flag: --decode_compare or --decode_compare=1 runs the cached
  // vs. uncached decode comparison after the registered benchmarks.
  bool decode_compare = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--decode_compare") == 0) {
      decode_compare = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  decode_compare |= TakeFlag(&argc, argv, "decode_compare") == "1";
  if (!metrics_out.empty() || !trace_out.empty()) {
    infuserki::obs::Tracer::Get().Enable();
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (decode_compare) infuserki::tensor::RunDecodeCompare();

  if (!trace_out.empty() &&
      !infuserki::obs::Tracer::Get().WriteChromeTrace(trace_out)) {
    std::fprintf(stderr, "trace write failed: %s\n", trace_out.c_str());
    return 1;
  }
  if (!metrics_out.empty()) {
    infuserki::obs::RunManifest manifest("bench_micro_tensor");
    if (!manifest.Write(metrics_out)) {
      std::fprintf(stderr, "metrics manifest write failed: %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}
