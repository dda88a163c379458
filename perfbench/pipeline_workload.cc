// paper_pipeline: a reduced Table-1 run for InfuserKI only, with no model
// cache: KG build, base pretraining and knowledge detection (inside
// eval::Experiment::Setup, which calls model::PretrainOrLoad and
// core::DetectKnowledge), the three-phase core::InfuserKi::Train, then
// eval::Experiment::EvaluateMethod (NR / RR / F1 and the claim task).
// Pretraining, detection, training and eval are timed as pipeline_s; the
// phase split comes from the spans the library already records.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/infuserki.h"
#include "eval/experiment.h"
#include "kg/dataset.h"
#include "kg/mcq.h"
#include "kg/synth.h"
#include "kg/templates.h"
#include "obs/trace.h"
#include "perfbench/workloads.h"
#include "util/rng.h"

namespace infuserki::perfbench {
namespace {

// Reduced sizes: the paper's model shape, a KG and training budget small
// enough that one pipeline takes a few seconds.
constexpr size_t kTriplets = 32;
constexpr size_t kPretrainSteps = 48;
constexpr size_t kPretrainBatch = 4;
constexpr size_t kInfuserEpochs = 1;
constexpr size_t kQaEpochs = 2;
constexpr size_t kRcEpochs = 1;
constexpr size_t kEvalCap = 8;
constexpr size_t kDownstreamCap = 8;
constexpr int kSetupRepeats = 31;

eval::ExperimentConfig PipelineConfig(uint64_t seed) {
  eval::ExperimentConfig config;
  config.domain = eval::ExperimentConfig::Domain::kUmls;
  config.num_triplets = kTriplets;
  config.seed = seed;
  config.arch.dim = 64;
  config.arch.num_layers = 8;
  config.arch.num_heads = 4;
  config.arch.ffn_hidden = 128;
  config.pretrain_steps = kPretrainSteps;
  config.pretrain_batch = kPretrainBatch;
  config.cache_dir = "";  // always pretrain: no model cache
  config.filler_count = 24;
  config.known_mix_count = 16;
  config.yesno_count = 16;
  config.eval_cap = kEvalCap;
  config.downstream_cap = kDownstreamCap;
  return config;
}

core::InfuserKiOptions MethodOptions() {
  core::InfuserKiOptions options;
  options.adapters.first_layer = 1;
  options.infuser_epochs = kInfuserEpochs;
  options.qa_epochs = kQaEpochs;
  options.rc_epochs = kRcEpochs;
  return options;
}

/// The inputs the pipeline integrates, built outside the timed window: the
/// KG, its detection question set and their vocabulary.
struct PipelineInputs {
  kg::KnowledgeGraph graph;
  std::vector<kg::Mcq> questions;
  text::Tokenizer tokenizer;
  std::vector<std::string> question_texts;
};

std::unique_ptr<PipelineInputs> SetUpInputs(uint64_t seed) {
  auto inputs = std::make_unique<PipelineInputs>();
  kg::SynthOptions synth;
  synth.num_triplets = kTriplets;
  synth.seed = seed;
  inputs->graph = kg::SyntheticUmls(synth);
  kg::TemplateEngine templates;
  kg::McqBuilder builder(&inputs->graph, &templates);
  util::Rng rng(seed + 4);
  inputs->questions = builder.BuildAll(/*template_id=*/1, &rng);
  for (const kg::Mcq& mcq : inputs->questions) {
    inputs->question_texts.push_back(kg::FormatQuestionPrompt(mcq));
  }
  inputs->tokenizer = text::Tokenizer::Build(inputs->question_texts);
  return inputs;
}

/// One pipeline's outcome.
struct PipelineRun {
  double seconds = 0.0;
  double tokens = 0.0;  // trained + prefilled + decoded tokens
  eval::MethodScores scores;
  size_t num_triplets = 0;
  size_t vocab_size = 0;
  core::DetectionResult detection;
  size_t mcqs_evaluated = 0;
  obs::Registry::Snapshot before;
  obs::Registry::Snapshot after_setup;
  obs::Registry::Snapshot after;
};

PipelineRun RunOnce(uint64_t seed) {
  PipelineRun run;
  obs::Registry& registry = obs::Registry::Get();
  eval::Experiment experiment(PipelineConfig(seed));
  run.before = registry.TakeSnapshot();
  Clock::time_point start = Clock::now();
  {
    OBS_SPAN("eval/Experiment::Setup");
    experiment.Setup();
  }
  run.after_setup = registry.TakeSnapshot();
  std::unique_ptr<model::TransformerLM> lm = experiment.CloneBaseModel();
  core::InfuserKi method(lm.get(), MethodOptions());
  core::KiTrainData data = experiment.BuildTrainData();
  {
    OBS_SPAN("core/InfuserKi::Train");
    method.Train(data);
  }
  {
    OBS_SPAN("eval/Experiment::EvaluateMethod");
    run.scores =
        experiment.EvaluateMethod(method.name(), *lm, method.Forward());
  }
  run.seconds = SecondsSince(start);
  run.after = registry.TakeSnapshot();
  run.tokens = static_cast<double>(
      CounterDelta(run.before, run.after, "trainer/tokens") +
      CounterDelta(run.before, run.after, "engine/prefill_tokens") +
      CounterDelta(run.before, run.after, "engine/decode_tokens"));
  run.num_triplets = experiment.kg().num_triplets();
  run.vocab_size = experiment.base_lm().config().vocab_size;
  run.detection = experiment.detection();
  run.mcqs_evaluated = experiment.nr_set().size() + experiment.rr_set().size();
  for (int t = 1; t <= kg::kNumTemplates; ++t) {
    run.mcqs_evaluated += experiment.template_set(t).size();
  }
  return run;
}

bool InUnitInterval(double value) {
  return std::isfinite(value) && value >= 0.0 && value <= 1.0;
}

void GateRun(const PipelineRun& run, WorkloadReport* report) {
  const core::DetectionResult& detection = run.detection;
  std::vector<int> seen(run.num_triplets, 0);
  bool in_range = true;
  for (size_t index : detection.known) {
    if (index >= run.num_triplets) in_range = false;
    else seen[index] += 1;
  }
  for (size_t index : detection.unknown) {
    if (index >= run.num_triplets) in_range = false;
    else seen[index] += 2;
  }
  bool partition = in_range && detection.is_known.size() == run.num_triplets;
  for (size_t i = 0; partition && i < run.num_triplets; ++i) {
    bool known = seen[i] == 1;
    partition = (seen[i] == 1 || seen[i] == 2) &&
                (detection.is_known[i] != 0) == known;
  }
  report->Gate(partition, "detection_partition",
               "known (" + std::to_string(detection.known.size()) +
                   ") and unknown (" +
                   std::to_string(detection.unknown.size()) +
                   ") do not partition the " +
                   std::to_string(run.num_triplets) + " triplets");
  const eval::MethodScores& s = run.scores;
  bool scores_ok = InUnitInterval(s.nr) && InUnitInterval(s.rr) &&
                   InUnitInterval(s.f1_unseen) &&
                   InUnitInterval(s.downstream);
  for (double f1 : s.f1) scores_ok = scores_ok && InUnitInterval(f1);
  report->Gate(scores_ok, "scores_in_unit_interval",
               "NR=" + FullNumber(s.nr) + " RR=" + FullNumber(s.rr) +
                   " F1_unseen=" + FullNumber(s.f1_unseen));
}

bool SameScores(const eval::MethodScores& a, const eval::MethodScores& b) {
  return a.nr == b.nr && a.rr == b.rr && a.f1 == b.f1 &&
         a.f1_unseen == b.f1_unseen && a.downstream == b.downstream;
}

double SpanTotal(const std::map<std::string, SpanTime>& spans,
                 const std::string& name) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_s;
}

}  // namespace

WorkloadReport RunPaperPipeline(const RunOptions& options) {
  WorkloadReport report;
  std::vector<double> setup_s;
  std::unique_ptr<PipelineInputs> inputs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    inputs.reset();
    Clock::time_point start = Clock::now();
    inputs = SetUpInputs(options.seed);
    setup_s.push_back(SecondsSince(start));
  }

  // Untraced: whole pipelines back to back while the window lasts (at
  // least one); pipeline_s is their median. Traced: one untraced and one
  // traced pipeline, whose ratio is the tracing overhead.
  std::vector<PipelineRun> runs;
  Clock::time_point window = Clock::now();
  if (!options.trace) {
    do {
      runs.push_back(RunOnce(options.seed));
    } while (SecondsSince(window) + runs.back().seconds <= options.seconds);
  } else {
    runs.push_back(RunOnce(options.seed));
    obs::Tracer::Get().Enable(1 << 18);
    runs.push_back(RunOnce(options.seed));
    obs::Tracer::Get().Disable();
  }

  std::vector<double> seconds;
  std::vector<double> tokens_per_s;
  bool deterministic = true;
  for (const PipelineRun& run : runs) {
    GateRun(run, &report);
    seconds.push_back(run.seconds);
    tokens_per_s.push_back(run.tokens / run.seconds);
    deterministic = deterministic && SameScores(run.scores, runs[0].scores);
  }
  report.Gate(deterministic, "pipeline_deterministic",
              "the same seed gave different NR/RR/F1 across repeats");
  report.attempted = runs.size();

  const PipelineRun& last = runs.back();
  const double pipeline_s = Median(seconds);
  report.workload_metrics = {
      {"pipeline_s", pipeline_s, "s"},
      {"nr", last.scores.nr, "score"},
      {"rr", last.scores.rr, "score"},
      {"f1_unseen", last.scores.f1_unseen, "score"},
  };
  report.SetEndToEnd(Median(setup_s), pipeline_s * 1e3, Median(tokens_per_s));
  if (!options.trace) return report;

  // Per-layer numbers of the traced pipeline.
  std::map<std::string, double>& m = report.per_layer;
  CollectCommonLayerMetrics(last.before, last.after, &m);
  report.spans = SpanSelfTimes(obs::Tracer::Get().Events());
  report.traced_window_s = last.seconds;
  const std::map<std::string, SpanTime>& spans = report.spans;
  const double pretrain_s =
      obs::Registry::Get().GetGauge("pretrain/train_seconds")->Value();
  const double pretrain_tokens = static_cast<double>(
      CounterDelta(last.before, last.after_setup, "trainer/tokens"));
  m["model.pretrain_s"] = pretrain_s;
  m["model.pretrain_tokens_per_s"] =
      pretrain_s > 0.0 ? pretrain_tokens / pretrain_s : 0.0;
  m["kg.build_s"] = SpanTotal(spans, "experiment/kg_build");
  m["text.encode_us_p50"] =
      EncodeP50Us(inputs->tokenizer, inputs->question_texts);
  m["core.detection_s"] = SpanTotal(spans, "detection/detect_knowledge");
  m["core.train_s"] = SpanTotal(spans, "core/InfuserKi::Train");
  m["core.train_infuser_s"] = SpanTotal(spans, "infuserki/train_infuser");
  m["core.train_qa_s"] = SpanTotal(spans, "infuserki/train_qa");
  m["core.train_rc_s"] = SpanTotal(spans, "infuserki/train_rc");
  const double eval_s = SpanTotal(spans, "eval/Experiment::EvaluateMethod");
  m["eval.eval_s"] = eval_s;
  m["eval.mcq_per_s"] =
      eval_s > 0.0 ? static_cast<double>(last.mcqs_evaluated) / eval_s : 0.0;
  m["obs.trace_overhead_pct"] =
      (runs[1].seconds / runs[0].seconds - 1.0) * 100.0;

  // Training runs whole sequences: replay one full-sequence forward at the
  // mean trained sequence length.
  const double examples = static_cast<double>(
      CounterDelta(last.before, last.after, "trainer/examples"));
  const double trained = static_cast<double>(
      CounterDelta(last.before, last.after, "trainer/tokens"));
  const size_t seq = examples > 0.0
                         ? std::max<size_t>(1, static_cast<size_t>(
                                                   std::lround(trained /
                                                               examples)))
                         : 1;
  model::TransformerConfig arch = PipelineConfig(options.seed).arch;
  arch.vocab_size = last.vocab_size;
  std::vector<GemmShape> gemms;
  std::vector<AttentionShape> attention;
  ForwardShapes(arch, seq, seq, &gemms, &attention);
  ReplayTensorShapes(gemms, attention, arch.num_heads, arch.dim, 1.0,
                     static_cast<uint64_t>(m["tensor.gemm_flops"]), &m);
  return report;
}

}  // namespace infuserki::perfbench
