#include "eval/experiment.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "eval/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace infuserki::eval {
namespace {

/// Deterministically samples at most `cap` elements of `indices`.
std::vector<size_t> CapSample(std::vector<size_t> indices, size_t cap,
                              util::Rng* rng) {
  if (indices.size() <= cap) return indices;
  rng->Shuffle(&indices);
  indices.resize(cap);
  return indices;
}

}  // namespace

Experiment::Experiment(const ExperimentConfig& config) : config_(config) {}

void Experiment::Setup() {
  OBS_SPAN("experiment/setup");
  util::Stopwatch watch;
  {
    OBS_SPAN("experiment/kg_build");
    kg::SynthOptions synth;
    synth.num_triplets = config_.num_triplets;
    synth.seed = config_.seed;
    kg_ = config_.domain == ExperimentConfig::Domain::kUmls
              ? kg::SyntheticUmls(synth)
              : kg::SyntheticMetaQa(synth);
    dataset_ = std::make_unique<kg::DatasetBuilder>(&kg_, &templates_);
  }
  LOG_INFO << "experiment KG: " << kg_.num_triplets() << " triplets, "
           << kg_.num_entities() << " entities, " << kg_.num_relations()
           << " relations (built in " << watch.Lap() << "s)";
  BuildCorpusAndPretrain();
  double pretrain_seconds = watch.Lap();
  RunDetection();
  double detection_seconds = watch.Lap();
  BuildEvalSets();
  LOG_INFO << "experiment setup phases: pretrain " << pretrain_seconds
           << "s, detection " << detection_seconds << "s, eval-set freeze "
           << watch.Lap() << "s";
}

void Experiment::BuildCorpusAndPretrain() {
  OBS_SPAN("experiment/pretrain");
  util::Rng rng(config_.seed + 1);
  size_t subset_size = static_cast<size_t>(
      static_cast<double>(kg_.num_triplets()) * config_.pretrain_fraction);
  pretrain_subset_ = rng.SampleIndices(kg_.num_triplets(), subset_size);

  model::PretrainSpec spec;
  spec.arch = config_.arch;
  spec.steps = config_.pretrain_steps;
  spec.batch_size = config_.pretrain_batch;
  spec.lr = config_.pretrain_lr;
  spec.seed = config_.seed + 2;
  spec.cache_dir = config_.cache_dir;
  spec.checkpoint = config_.checkpoint;

  // Facts the base model is supposed to know: seen-template QA,
  // statements, yes/no. A slice of the subset also appears under the
  // "unseen" templates T3..T5 — the real LLaMa has seen every phrasing
  // style in pretraining, and without this no method (or the vanilla
  // model) could answer reworded questions at word-level-simulator scale.
  util::Rng mcq_rng(config_.seed + 3);
  for (int template_id = 1; template_id <= kg::kNumTemplates;
       ++template_id) {
    std::vector<size_t> subset = pretrain_subset_;
    if (template_id > kg::kNumSeenTemplates) {
      subset.resize(subset.size() / 2);
    }
    for (const kg::QaSample& sample :
         dataset_->BuildQa(subset, template_id, &mcq_rng)) {
      spec.instruction_docs.emplace_back(sample.prompt, sample.response);
    }
  }
  for (const kg::StatementSample& statement :
       dataset_->BuildStatements(pretrain_subset_)) {
    spec.plain_docs.push_back(statement.text);
  }
  for (const kg::YesNoSample& sample :
       dataset_->BuildYesNo(pretrain_subset_, &mcq_rng)) {
    spec.instruction_docs.emplace_back(sample.prompt,
                                       sample.answer ? "yes" : "no");
  }
  for (std::string& filler :
       kg::FillerSentences(config_.filler_count, &rng)) {
    spec.plain_docs.push_back(std::move(filler));
  }

  // Vocabulary coverage for text never trained on: every statement and
  // every template phrasing of every triplet, plus task boilerplate.
  std::vector<size_t> all(kg_.num_triplets());
  std::iota(all.begin(), all.end(), 0);
  for (const kg::StatementSample& statement :
       dataset_->BuildStatements(all)) {
    spec.extra_vocab_docs.push_back(statement.text);
  }
  for (size_t index : all) {
    const kg::Triplet& triplet = kg_.triplets()[index];
    for (int t = 1; t <= kg::kNumTemplates; ++t) {
      spec.extra_vocab_docs.push_back(
          templates_.Question(kg_, triplet, t));
    }
    spec.extra_vocab_docs.push_back(templates_.YesNoQuestion(kg_, triplet));
  }
  spec.extra_vocab_docs.push_back(
      "question options answer yes no maybe it is claimed that is this "
      "claim true below is an instruction that describes a task . write a "
      "response that appropriately completes the request . ### instruction "
      ": ### response : ( a ) ( b ) ( c ) ( d )");

  base_ = model::PretrainOrLoad(spec);
}

void Experiment::RunDetection() {
  OBS_SPAN("experiment/detection");
  util::Rng rng(config_.seed + 4);
  kg::McqBuilder builder(&kg_, &templates_);
  std::vector<kg::Mcq> questions =
      builder.BuildAll(/*template_id=*/1, &rng);
  detection_ = core::DetectKnowledge(*base_.lm, base_.tokenizer, questions);
  LOG_INFO << "knowledge detection: " << detection_.known.size()
           << " known / " << detection_.unknown.size() << " unknown ("
           << detection_.KnownFraction() << " known fraction)";
  CHECK(!detection_.unknown.empty())
      << "base model answered everything; increase num_triplets or lower "
         "pretrain_fraction";
  CHECK(!detection_.known.empty())
      << "base model knows nothing; raise pretrain_steps";
}

void Experiment::BuildEvalSets() {
  OBS_SPAN("experiment/eval_freeze");
  util::Rng rng(config_.seed + 5);
  kg::McqBuilder builder(&kg_, &templates_);

  auto build_set = [&](const std::vector<size_t>& indices, int template_id) {
    std::vector<kg::Mcq> set;
    set.reserve(indices.size());
    for (size_t index : indices) {
      set.push_back(builder.Build(index, template_id, &rng));
    }
    return set;
  };

  nr_set_ = build_set(CapSample(detection_.unknown, config_.eval_cap, &rng),
                      /*template_id=*/1);
  rr_set_ = build_set(CapSample(detection_.known, config_.eval_cap, &rng),
                      /*template_id=*/1);

  std::vector<size_t> all(kg_.num_triplets());
  std::iota(all.begin(), all.end(), 0);
  std::vector<size_t> f1_sample = CapSample(all, config_.eval_cap, &rng);
  for (int template_id = 1; template_id <= kg::kNumTemplates;
       ++template_id) {
    template_sets_[static_cast<size_t>(template_id - 1)] =
        build_set(f1_sample, template_id);
  }

  std::vector<size_t> downstream_sample =
      CapSample(all, config_.downstream_cap, &rng);
  if (config_.domain == ExperimentConfig::Domain::kUmls) {
    claim_items_ = BuildClaimVerificationTask(kg_, templates_,
                                              downstream_sample, &rng);
  } else {
    onehop_items_ = Build1HopTask(kg_, templates_, downstream_sample,
                                  config_.onehop_candidates, &rng);
  }
}

std::unique_ptr<model::TransformerLM> Experiment::CloneBaseModel() const {
  CHECK(base_.lm != nullptr) << "Setup() not called";
  model::TransformerConfig arch = base_.lm->config();
  util::Rng rng(config_.seed + 6);
  auto clone = std::make_unique<model::TransformerLM>(arch, &rng);
  std::vector<tensor::NamedParameter> source = base_.lm->NamedParameters();
  std::vector<tensor::NamedParameter> target = clone->NamedParameters();
  CHECK_EQ(source.size(), target.size());
  for (size_t i = 0; i < source.size(); ++i) {
    CHECK(source[i].name == target[i].name);
    CHECK(source[i].tensor.shape() == target[i].tensor.shape());
    std::memcpy(target[i].tensor.data(), source[i].tensor.data(),
                source[i].tensor.size() * sizeof(float));
  }
  // Base model parameters are frozen by default; full fine-tuning opts back
  // in explicitly.
  clone->SetTrainable(false);
  return clone;
}

core::KiTrainData Experiment::BuildTrainData(uint64_t seed_offset) const {
  util::Rng rng(config_.seed + 7 + seed_offset);
  core::KiTrainData data;
  data.tokenizer = &base_.tokenizer;
  data.kg = &kg_;
  for (int template_id = 1; template_id <= kg::kNumSeenTemplates;
       ++template_id) {
    for (kg::QaSample& sample :
         dataset_->BuildQa(detection_.unknown, template_id, &rng)) {
      data.unknown_qa.push_back(std::move(sample));
    }
  }
  std::vector<size_t> known_mix =
      CapSample(detection_.known, config_.known_mix_count, &rng);
  // Both seen templates, mirroring the unknown side: the Infuser must
  // recognize known knowledge across phrasings, not one fixed surface.
  for (int template_id = 1; template_id <= kg::kNumSeenTemplates;
       ++template_id) {
    for (kg::QaSample& sample :
         dataset_->BuildQa(known_mix, template_id, &rng)) {
      data.known_qa.push_back(std::move(sample));
    }
  }
  std::vector<size_t> yesno_sample =
      CapSample(detection_.unknown, config_.yesno_count, &rng);
  data.unknown_yesno = dataset_->BuildYesNo(yesno_sample, &rng);
  data.unknown_statements = dataset_->BuildStatements(detection_.unknown);
  return data;
}

MethodScores Experiment::EvaluateVanilla() const {
  MethodScores scores = EvaluateMethod("Vanilla", *base_.lm, {});
  scores.has_nr_rr = false;
  scores.trainable_params = 0;
  return scores;
}

MethodScores Experiment::EvaluateMethod(
    const std::string& name, const model::TransformerLM& lm,
    const model::ForwardOptions& forward) const {
  obs::ScopedSpan span("method/" + name + "/eval");
  MethodScores scores;
  scores.method = name;

  auto mcq_accuracy = [&](const std::vector<kg::Mcq>& set) {
    if (set.empty()) return 0.0;
    std::vector<char> outcomes(set.size(), 0);
    model::ForEachIndependentForward(set.size(), forward, [&](size_t i) {
      int chosen =
          core::AnswerMcq(lm, base_.tokenizer, set[i],
                          core::AnswerMode::kLikelihood, forward);
      outcomes[i] = chosen == set[i].correct ? 1 : 0;
    });
    return MeanRate(outcomes);
  };

  scores.nr = mcq_accuracy(nr_set_);
  scores.rr = mcq_accuracy(rr_set_);
  double unseen_total = 0.0;
  for (int template_id = 1; template_id <= kg::kNumTemplates;
       ++template_id) {
    double accuracy =
        mcq_accuracy(template_sets_[static_cast<size_t>(template_id - 1)]);
    scores.f1[static_cast<size_t>(template_id - 1)] = accuracy;
    if (template_id > kg::kNumSeenTemplates) unseen_total += accuracy;
  }
  scores.f1_unseen =
      unseen_total /
      static_cast<double>(kg::kNumTemplates - kg::kNumSeenTemplates);

  if (config_.domain == ExperimentConfig::Domain::kUmls) {
    scores.downstream =
        EvaluateClaimTask(lm, base_.tokenizer, claim_items_, forward);
  } else {
    scores.downstream =
        Evaluate1HopTask(lm, base_.tokenizer, onehop_items_, forward);
  }
  return scores;
}

const std::vector<kg::Mcq>& Experiment::template_set(int template_id) const {
  CHECK_GE(template_id, 1);
  CHECK_LE(template_id, kg::kNumTemplates);
  return template_sets_[static_cast<size_t>(template_id - 1)];
}

}  // namespace infuserki::eval
