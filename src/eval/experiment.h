#ifndef INFUSERKI_EVAL_EXPERIMENT_H_
#define INFUSERKI_EVAL_EXPERIMENT_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/detection.h"
#include "core/ki_method.h"
#include "eval/downstream.h"
#include "kg/dataset.h"
#include "kg/synth.h"
#include "model/pretrain.h"

namespace infuserki::eval {

/// Full configuration of one experimental environment (one KG + one base
/// model + the shared evaluation sets). Bench binaries build one Experiment
/// and run every method against it.
struct ExperimentConfig {
  enum class Domain { kUmls, kMetaQa };

  Domain domain = Domain::kUmls;
  size_t num_triplets = 240;
  uint64_t seed = 17;

  /// Fraction of triplets woven into the base model's pretraining corpus
  /// (the facts the vanilla model is supposed to "know").
  double pretrain_fraction = 0.55;

  model::TransformerConfig arch;
  size_t pretrain_steps = 2400;
  size_t pretrain_batch = 8;
  float pretrain_lr = 3e-3f;
  std::string cache_dir = "model_cache";

  /// Mid-run durability for the pretraining phase (see model/train_state.h):
  /// snapshot every N steps into `checkpoint.dir` and resume after a crash.
  /// Empty directory or zero interval disables.
  model::CheckpointPolicy checkpoint;

  size_t filler_count = 120;     // generic prose docs in pretraining
  size_t known_mix_count = 40;   // known QA replay given to every method
  size_t yesno_count = 40;       // unknown yes/no samples in training

  size_t eval_cap = 150;         // max MCQs per metric set
  size_t downstream_cap = 120;   // max downstream items
  size_t onehop_candidates = 10;
};

/// One row of a paper-style results table.
struct MethodScores {
  std::string method;
  bool has_nr_rr = true;  // the vanilla row has no NR/RR (nothing trained)
  double nr = 0.0;
  double rr = 0.0;
  std::array<double, kg::kNumTemplates> f1 = {};
  double f1_unseen = 0.0;
  double downstream = 0.0;
  size_t trainable_params = 0;
  double train_seconds = 0.0;
};

/// The experimental environment of §4.1: builds the synthetic KG, pretrains
/// (or cache-loads) the base LM on the known-fraction corpus, runs knowledge
/// detection, and freezes the evaluation sets so every method is scored on
/// identical questions.
class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);

  /// Builds everything. Call once before anything else.
  void Setup();

  const ExperimentConfig& config() const { return config_; }
  const kg::KnowledgeGraph& kg() const { return kg_; }
  const kg::TemplateEngine& templates() const { return templates_; }
  const text::Tokenizer& tokenizer() const { return base_.tokenizer; }
  const core::DetectionResult& detection() const { return detection_; }

  /// The master pretrained model. Methods must not mutate it — use
  /// CloneBaseModel() for anything that trains or quantizes.
  const model::TransformerLM& base_lm() const { return *base_.lm; }

  /// Deep copy of the pretrained base model (fresh parameters tensors).
  std::unique_ptr<model::TransformerLM> CloneBaseModel() const;

  /// Training material per the shared protocol (unknown QA T1/T2, known
  /// replay mix, unknown yes/no, unknown statements).
  core::KiTrainData BuildTrainData(uint64_t seed_offset = 0) const;

  /// Scores the untouched base model (the table's vanilla row).
  MethodScores EvaluateVanilla() const;

  /// Scores an adapted model under `forward`.
  MethodScores EvaluateMethod(const std::string& name,
                              const model::TransformerLM& lm,
                              const model::ForwardOptions& forward) const;

  /// The frozen evaluation MCQ sets (exposed for analysis benches).
  const std::vector<kg::Mcq>& nr_set() const { return nr_set_; }
  const std::vector<kg::Mcq>& rr_set() const { return rr_set_; }
  const std::vector<kg::Mcq>& template_set(int template_id) const;

 private:
  void BuildCorpusAndPretrain();
  void RunDetection();
  void BuildEvalSets();

  ExperimentConfig config_;
  kg::KnowledgeGraph kg_;
  kg::TemplateEngine templates_;
  std::unique_ptr<kg::DatasetBuilder> dataset_;
  model::PretrainedModel base_;
  std::vector<size_t> pretrain_subset_;  // triplets woven into pretraining
  core::DetectionResult detection_;

  std::vector<kg::Mcq> nr_set_;                       // unknown triplets, T1
  std::vector<kg::Mcq> rr_set_;                       // known triplets, T1
  std::array<std::vector<kg::Mcq>, kg::kNumTemplates> template_sets_;
  std::vector<ClaimItem> claim_items_;                // UMLS downstream
  std::vector<OneHopItem> onehop_items_;              // MetaQA downstream
};

}  // namespace infuserki::eval

#endif  // INFUSERKI_EVAL_EXPERIMENT_H_
