#include <gtest/gtest.h>

#include "core/detection.h"
#include "core/infuserki.h"
#include "core/ki_method.h"
#include "kg/dataset.h"
#include "kg/synth.h"
#include "model/pretrain.h"
#include "obs/metrics.h"

namespace infuserki::core {
namespace {

TEST(FindSubsequence, Basic) {
  EXPECT_EQ(FindSubsequence({1, 2, 3, 4}, {2, 3}), 1);
  EXPECT_EQ(FindSubsequence({1, 2, 3}, {1}), 0);
  EXPECT_EQ(FindSubsequence({1, 2, 3}, {3}), 2);
  EXPECT_EQ(FindSubsequence({1, 2, 3}, {4}), -1);
  EXPECT_EQ(FindSubsequence({1, 2}, {1, 2, 3}), -1);
  EXPECT_EQ(FindSubsequence({1, 2}, {}), -1);
  EXPECT_EQ(FindSubsequence({1, 2, 1, 2}, {1, 2}), 0);  // first match
}

TEST(InfuserKi, ForwardHookRouting) {
  util::Rng rng(1);
  model::TransformerConfig config;
  config.vocab_size = 30;
  config.dim = 16;
  config.num_layers = 3;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  model::TransformerLM lm(config, &rng);

  InfuserKiOptions ffn_options;
  ffn_options.adapters.first_layer = 0;
  InfuserKi ffn_method(&lm, ffn_options);
  EXPECT_EQ(ffn_method.Forward().hook, &ffn_method.stack());

  InfuserKiOptions attn_options;
  attn_options.adapters.first_layer = 0;
  attn_options.adapters.placement = AdapterPlacement::kAttention;
  InfuserKi attn_method(&lm, attn_options);
  EXPECT_EQ(attn_method.Forward().hook, &attn_method.stack());
}

TEST(InfuserKi, FreshMethodPreservesBaseOutputs) {
  // Before training, the adapted model must equal the base model exactly
  // (zero-init up-projections).
  util::Rng rng(2);
  model::TransformerConfig config;
  config.vocab_size = 30;
  config.dim = 16;
  config.num_layers = 3;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  model::TransformerLM lm(config, &rng);
  InfuserKiOptions options;
  options.adapters.first_layer = 0;
  InfuserKi method(&lm, options);
  tensor::NoGradGuard no_grad;
  tensor::Tensor base = lm.Logits({3, 4, 5});
  tensor::Tensor adapted = lm.Logits({3, 4, 5}, method.Forward());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_FLOAT_EQ(base.data()[i], adapted.data()[i]);
  }
}

TEST(InfuserKi, TrainableParameterCount) {
  util::Rng rng(3);
  model::TransformerConfig config;
  config.vocab_size = 30;
  config.dim = 16;
  config.num_layers = 4;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  model::TransformerLM lm(config, &rng);
  InfuserKiOptions options;
  options.adapters.first_layer = 1;
  options.adapters.bottleneck = 4;
  InfuserKi method(&lm, options);
  // 3 adapted layers x (down 16x4+4 + up 4x16+16 + infuser MLP).
  size_t per_layer_adapter = (16 * 4 + 4) + (4 * 16 + 16);
  size_t per_layer_infuser =
      (16 * options.adapters.infuser_hidden +
       options.adapters.infuser_hidden) +
      (options.adapters.infuser_hidden + 1);
  EXPECT_EQ(method.NumTrainableParameters(),
            3 * (per_layer_adapter + per_layer_infuser));
}

// Only the QA phase trains through LmTrainer, so only it moves the
// trainer/* counters the repository benchmark reads (tokens_per_s,
// model.train_steps): qa_epochs * ceil(n / batch_size) steps of full
// batches. The Infuser and RC phases run their own loop and add nothing.
TEST(InfuserKi, OnlyQaPhaseCountsTrainerSteps) {
  kg::KnowledgeGraph graph =
      kg::SyntheticUmls({.num_triplets = 24, .seed = 31});
  kg::TemplateEngine templates;
  kg::DatasetBuilder dataset(&graph, &templates);
  util::Rng rng(32);
  KiTrainData data;
  data.kg = &graph;
  data.unknown_qa = dataset.BuildQa({0, 1, 2, 3, 4}, 1, &rng);
  data.known_qa = dataset.BuildQa({5, 6, 7}, 1, &rng);
  data.unknown_statements = dataset.BuildStatements({0, 1, 2, 3, 4});
  std::vector<std::string> corpus;
  for (const auto* samples : {&data.unknown_qa, &data.known_qa}) {
    for (const kg::QaSample& sample : *samples) {
      corpus.push_back(sample.prompt + " " + sample.response);
      for (const std::string& option : sample.mcq.options) {
        corpus.push_back(option);
      }
    }
  }
  for (const kg::StatementSample& statement : data.unknown_statements) {
    corpus.push_back(statement.text);
  }
  text::Tokenizer tokenizer = text::Tokenizer::Build(corpus);
  data.tokenizer = &tokenizer;

  model::TransformerConfig config;
  config.vocab_size = tokenizer.vocab_size();
  config.dim = 16;
  config.num_layers = 3;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  model::TransformerLM lm(config, &rng);
  InfuserKiOptions options;
  options.adapters.first_layer = 1;
  options.batch_size = 3;
  options.infuser_epochs = 2;
  options.qa_epochs = 3;
  options.rc_epochs = 2;
  InfuserKi method(&lm, options);
  std::vector<float> infuser_before =
      method.stack().InfuserParameters()[0].vec();
  size_t params_before = method.NumTrainableParameters();

  obs::Registry::Snapshot before = obs::Registry::Get().TakeSnapshot();
  method.Train(data);
  obs::Registry::Snapshot after = obs::Registry::Get().TakeSnapshot();

  // The Infuser phase ran (the QA phase keeps a pretrained Infuser frozen)
  // and so did the RC phase (it creates the RC heads).
  EXPECT_NE(method.stack().InfuserParameters()[0].vec(), infuser_before);
  EXPECT_GT(method.NumTrainableParameters(), params_before);
  // 8 QA examples in batches of 3: ceil(8 / 3) = 3 steps per epoch.
  constexpr size_t kQaSteps = 3 * 3;
  EXPECT_EQ(obs::Registry::CounterDelta(before, after, "trainer/steps"),
            kQaSteps);
  EXPECT_EQ(obs::Registry::CounterDelta(before, after, "trainer/examples"),
            kQaSteps * options.batch_size);
}

// Miniature end-to-end integration: pretrain a tiny base model on half a
// tiny KG, detect, integrate with InfuserKI, and verify the paper's
// qualitative claims: NR rises far above the vanilla level and RR stays
// high. Kept small enough for CI (~1 minute).
class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg_ = new kg::KnowledgeGraph(
        kg::SyntheticUmls({.num_triplets = 48, .seed = 21}));
    templates_ = new kg::TemplateEngine();
    dataset_ = new kg::DatasetBuilder(kg_, templates_);

    // Pretraining corpus over half the triplets.
    util::Rng rng(22);
    std::vector<size_t> subset = rng.SampleIndices(48, 24);
    model::PretrainSpec spec;
    spec.arch.dim = 32;
    spec.arch.num_layers = 4;
    spec.arch.num_heads = 2;
    spec.arch.ffn_hidden = 64;
    spec.steps = 700;
    spec.lr = 5e-3f;
    for (int t = 1; t <= 2; ++t) {
      for (const kg::QaSample& sample :
           dataset_->BuildQa(subset, t, &rng)) {
        spec.instruction_docs.emplace_back(sample.prompt, sample.response);
      }
    }
    for (const kg::StatementSample& s : dataset_->BuildStatements(subset)) {
      spec.plain_docs.push_back(s.text);
    }
    std::vector<size_t> all(48);
    for (size_t i = 0; i < 48; ++i) all[i] = i;
    for (const kg::StatementSample& s : dataset_->BuildStatements(all)) {
      spec.extra_vocab_docs.push_back(s.text);
    }
    for (size_t i : all) {
      for (int t = 1; t <= kg::kNumTemplates; ++t) {
        spec.extra_vocab_docs.push_back(
            templates_->Question(*kg_, kg_->triplets()[i], t));
      }
    }
    spec.extra_vocab_docs.push_back("question answer yes no");
    base_ = new model::PretrainedModel(model::PretrainOrLoad(spec));

    util::Rng mcq_rng(23);
    kg::McqBuilder builder(kg_, templates_);
    detection_ = new DetectionResult(DetectKnowledge(
        *base_->lm, base_->tokenizer, builder.BuildAll(1, &mcq_rng)));
  }

  static void TearDownTestSuite() {
    delete detection_;
    delete base_;
    delete dataset_;
    delete templates_;
    delete kg_;
  }

  static kg::KnowledgeGraph* kg_;
  static kg::TemplateEngine* templates_;
  static kg::DatasetBuilder* dataset_;
  static model::PretrainedModel* base_;
  static DetectionResult* detection_;
};

kg::KnowledgeGraph* EndToEnd::kg_ = nullptr;
kg::TemplateEngine* EndToEnd::templates_ = nullptr;
kg::DatasetBuilder* EndToEnd::dataset_ = nullptr;
model::PretrainedModel* EndToEnd::base_ = nullptr;
DetectionResult* EndToEnd::detection_ = nullptr;

TEST_F(EndToEnd, DetectionSplitsKnowledge) {
  EXPECT_GT(detection_->known.size(), 5u);
  EXPECT_GT(detection_->unknown.size(), 5u);
  EXPECT_EQ(detection_->known.size() + detection_->unknown.size(), 48u);
}

TEST_F(EndToEnd, InfuserKiIntegratesWithoutForgetting) {
  KiTrainData data;
  data.tokenizer = &base_->tokenizer;
  data.kg = kg_;
  util::Rng rng(24);
  for (int t = 1; t <= 2; ++t) {
    for (kg::QaSample& s :
         dataset_->BuildQa(detection_->unknown, t, &rng)) {
      data.unknown_qa.push_back(std::move(s));
    }
    for (kg::QaSample& s : dataset_->BuildQa(detection_->known, t, &rng)) {
      data.known_qa.push_back(std::move(s));
    }
  }
  data.unknown_statements =
      dataset_->BuildStatements(detection_->unknown);

  InfuserKiOptions options;
  options.adapters.first_layer = 1;
  options.qa_epochs = 110;
  options.infuser_epochs = 20;
  options.rc_epochs = 2;
  InfuserKi method(base_->lm.get(), options);
  method.Train(data);

  // Evaluate on fresh MCQs.
  util::Rng eval_rng(25);
  kg::McqBuilder builder(kg_, templates_);
  auto accuracy = [&](const std::vector<size_t>& indices) {
    size_t correct = 0;
    for (size_t index : indices) {
      kg::Mcq mcq = builder.Build(index, 1, &eval_rng);
      if (AnswerMcq(*base_->lm, base_->tokenizer, mcq,
                    AnswerMode::kLikelihood,
                    method.Forward()) == mcq.correct) {
        ++correct;
      }
    }
    return static_cast<double>(correct) /
           static_cast<double>(indices.size());
  };
  double nr = accuracy(detection_->unknown);
  double rr = accuracy(detection_->known);
  // Loose thresholds: this is a pipeline-correctness test, not a paper run.
  EXPECT_GT(nr, 0.35) << "new knowledge was not integrated";
  EXPECT_GT(rr, 0.6) << "known knowledge was forgotten";

  // Fig. 6 invariant: the trained gate opens more on unknown inputs than
  // on known ones.
  tensor::NoGradGuard no_grad;
  auto mean_gate = [&](const std::vector<size_t>& indices) {
    double total = 0.0;
    size_t count = 0;
    model::ForwardOptions forward = method.Forward();
    for (size_t i = 0; i < 12 && i < indices.size(); ++i) {
      kg::Mcq mcq = builder.Build(indices[i], 1, &eval_rng);
      std::string text = kg::FormatQuestionPrompt(mcq) + " " +
                         mcq.options[static_cast<size_t>(mcq.correct)];
      (void)base_->lm->Hidden(
          base_->tokenizer.EncodeWithSpecials(text, false), forward);
      for (const auto& [layer, score] :
           method.stack().infusing_scores()) {
        total += score;
        ++count;
      }
    }
    return total / static_cast<double>(count);
  };
  double known_gate = mean_gate(detection_->known);
  double unknown_gate = mean_gate(detection_->unknown);
  EXPECT_GT(unknown_gate, known_gate + 0.05)
      << "Infuser gate does not separate known from unknown";
}

}  // namespace
}  // namespace infuserki::core
