#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/ki_method.h"
#include "obs/metrics.h"
#include "peft/calinet.h"
#include "peft/full_finetune.h"
#include "peft/lora.h"
#include "peft/prefix_tuning.h"
#include "peft/tpatcher.h"

namespace infuserki::peft {
namespace {

model::TransformerConfig TinyConfig(size_t vocab) {
  model::TransformerConfig config;
  config.vocab_size = vocab;
  config.dim = 16;
  config.num_layers = 3;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  return config;
}

core::KiTrainData TinyData(const text::Tokenizer* tokenizer,
                           const kg::KnowledgeGraph* kg) {
  core::KiTrainData data;
  data.tokenizer = tokenizer;
  data.kg = kg;
  kg::QaSample sample;
  sample.prompt = "question : what is x ? answer :";
  sample.response = "alpha";
  data.unknown_qa.push_back(sample);
  sample.response = "beta";
  sample.prompt = "question : what is y ? answer :";
  data.unknown_qa.push_back(sample);
  return data;
}

class BaselineFixture : public ::testing::Test {
 protected:
  BaselineFixture()
      : tokenizer_(text::Tokenizer::Build(
            {"question : what is x y ? answer : alpha beta"})),
        rng_(1),
        lm_(TinyConfig(tokenizer_.vocab_size()), &rng_) {}

  text::Tokenizer tokenizer_;
  util::Rng rng_;
  model::TransformerLM lm_;
  kg::KnowledgeGraph kg_;
};

TEST_F(BaselineFixture, LoraAttachesAndDetaches) {
  {
    LoraOptions options;
    options.epochs = 1;
    LoraMethod lora(&lm_, options);
    EXPECT_GT(lora.NumTrainableParameters(), 0u);
    EXPECT_TRUE(lm_.layer(0).wq().has_lora());
    EXPECT_TRUE(lm_.layer(0).ffn_down().has_lora());
  }
  // Destructor detached everything.
  EXPECT_FALSE(lm_.layer(0).wq().has_lora());
  EXPECT_FALSE(lm_.layer(0).ffn_down().has_lora());
}

TEST_F(BaselineFixture, LoraQvOnlyPlacement) {
  LoraOptions options;
  options.target_all_linear = false;
  LoraMethod lora(&lm_, options);
  EXPECT_TRUE(lm_.layer(0).wq().has_lora());
  EXPECT_TRUE(lm_.layer(0).wv().has_lora());
  EXPECT_FALSE(lm_.layer(0).wk().has_lora());
  EXPECT_FALSE(lm_.layer(0).ffn_gate().has_lora());
}

TEST_F(BaselineFixture, LoraTrainingReducesLoss) {
  LoraOptions options;
  options.epochs = 200;  // 1 step/epoch at this corpus size
  options.lr = 1e-2f;
  LoraMethod lora(&lm_, options);
  core::KiTrainData data = TinyData(&tokenizer_, &kg_);
  model::LmExample example = model::MakeInstructionExample(
      tokenizer_, data.unknown_qa[0].prompt, data.unknown_qa[0].response);
  float before = lm_.NextTokenLoss(example.tokens,
                                   example.loss_start).item();
  lora.Train(data);
  float after = lm_.NextTokenLoss(example.tokens,
                                  example.loss_start).item();
  // The base here is a *random* network (no pretraining), so low-rank
  // deltas can only move the loss so far; assert a clear improvement
  // rather than convergence (full convergence is covered by the
  // experiment-level integration tests on pretrained bases).
  EXPECT_LT(after, before - 0.2f);
}

TEST_F(BaselineFixture, QloraQuantizesBase) {
  std::vector<float> original = lm_.layer(0).wq().weight().vec();
  LoraOptions options;
  options.quantize_base = true;
  options.epochs = 1;
  LoraMethod qlora(&lm_, options);
  EXPECT_EQ(qlora.name(), "QLoRA");
  // Quantization changed (rounded) the weights.
  size_t changed = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    if (lm_.layer(0).wq().weight().vec()[i] != original[i]) ++changed;
  }
  EXPECT_GT(changed, original.size() / 2);
}

TEST_F(BaselineFixture, PrefixTuningForwardHasPrefix) {
  PrefixTuningOptions options;
  options.prefix_len = 3;
  PrefixTuningMethod prefix(&lm_, options);
  model::ForwardOptions forward = prefix.Forward();
  ASSERT_NE(forward.prefix, nullptr);
  EXPECT_EQ(forward.prefix->prefix_len, 3u);
  EXPECT_EQ(forward.prefix->keys.size(), 3u);  // one per layer
  EXPECT_EQ(prefix.NumTrainableParameters(), 2u * 3u * 3u * 16u);
}

TEST_F(BaselineFixture, CalinetSingleLayerHook) {
  CalinetOptions options;
  options.layer = 1;
  options.num_slots = 8;
  CalinetMethod calinet(&lm_, options);
  EXPECT_EQ(calinet.adapted_layer(), 1);
  util::Rng rng(2);
  tensor::Tensor input = tensor::Tensor::Randn({2, 16}, &rng);
  EXPECT_FALSE(calinet.FfnDelta(0, input).defined());
  tensor::Tensor delta = calinet.FfnDelta(1, input);
  ASSERT_TRUE(delta.defined());
  // Zero-init values: starts as a no-op.
  for (float v : delta.vec()) EXPECT_EQ(v, 0.0f);
}

TEST_F(BaselineFixture, CalinetDefaultLayerTwoThirds) {
  CalinetOptions options;
  CalinetMethod calinet(&lm_, options);
  EXPECT_EQ(calinet.adapted_layer(), 2);  // 3 layers * 2/3
}

TEST_F(BaselineFixture, TPatcherPatchesOnLastLayer) {
  TPatcherOptions options;
  options.epochs = 2;
  TPatcherMethod patcher(&lm_, options);
  EXPECT_EQ(patcher.num_patches(), 0u);  // lazy until Train
  core::KiTrainData data = TinyData(&tokenizer_, &kg_);
  patcher.Train(data);
  EXPECT_GT(patcher.num_patches(), 0u);
  util::Rng rng(3);
  tensor::Tensor input = tensor::Tensor::Randn({2, 16}, &rng);
  EXPECT_FALSE(patcher.FfnDelta(0, input).defined());
  EXPECT_TRUE(patcher.FfnDelta(2, input).defined());  // last layer
}

TEST_F(BaselineFixture, FullFinetuneUnfreezesEverything) {
  lm_.SetTrainable(false);
  FullFinetuneOptions options;
  options.epochs = 1;
  FullFinetuneMethod finetune(&lm_, options);
  core::KiTrainData data = TinyData(&tokenizer_, &kg_);
  finetune.Train(data);
  EXPECT_EQ(finetune.NumTrainableParameters(), lm_.NumParameters());
  for (const tensor::Tensor& p : lm_.Parameters()) {
    EXPECT_TRUE(p.requires_grad());
  }
}

TEST_F(BaselineFixture, BuildInstructionExamplesRespectsFlags) {
  core::KiTrainData data = TinyData(&tokenizer_, &kg_);
  kg::QaSample known;
  known.prompt = "question : known ? answer :";
  known.response = "alpha";
  data.known_qa.push_back(known);
  kg::YesNoSample yn;
  yn.prompt = "is it ? answer :";
  yn.answer = true;
  data.unknown_yesno.push_back(yn);
  std::vector<model::LmExample> all =
      core::BuildInstructionExamples(data, true, true);
  ASSERT_EQ(all.size(), 4u);
  // Unknown QA, then the known mix (tagged for InfuserKI's gate override),
  // then yes/no.
  EXPECT_EQ(all[0].tag, 0);
  EXPECT_EQ(all[1].tag, 0);
  EXPECT_EQ(all[2].tag, core::kKnownReplayTag);
  EXPECT_EQ(all[3].tag, 0);
  EXPECT_EQ(core::BuildInstructionExamples(data, false, true).size(), 3u);
  EXPECT_EQ(core::BuildInstructionExamples(data, false, false).size(), 2u);
}

// Every baseline trains through LmTrainer::TrainEpochs: `epochs` epochs of
// ceil(n / batch_size) full batches. These are the trainer/* counters the
// repository benchmark reads.
TEST_F(BaselineFixture, TrainCountsEpochsOfCeilBatches) {
  core::KiTrainData data = TinyData(&tokenizer_, &kg_);
  kg::YesNoSample yn;
  yn.prompt = "question : is x alpha ? answer :";
  yn.answer = true;
  data.unknown_yesno.push_back(yn);  // n = 3 examples for every baseline
  constexpr size_t kEpochs = 3;
  constexpr size_t kBatch = 2;
  constexpr size_t kSteps = kEpochs * 2;  // ceil(3 / 2) = 2 steps per epoch

  using Factory = std::function<std::unique_ptr<core::KiMethod>()>;
  const std::vector<Factory> factories = {
      [&] {
        return std::make_unique<CalinetMethod>(
            &lm_, CalinetOptions{.batch_size = kBatch, .epochs = kEpochs});
      },
      [&] {
        return std::make_unique<TPatcherMethod>(
            &lm_, TPatcherOptions{.batch_size = kBatch, .epochs = kEpochs});
      },
      [&] {
        return std::make_unique<PrefixTuningMethod>(
            &lm_,
            PrefixTuningOptions{.batch_size = kBatch, .epochs = kEpochs});
      },
      [&] {
        return std::make_unique<LoraMethod>(
            &lm_, LoraOptions{.batch_size = kBatch, .epochs = kEpochs});
      },
      [&] {
        return std::make_unique<FullFinetuneMethod>(
            &lm_,
            FullFinetuneOptions{.batch_size = kBatch, .epochs = kEpochs});
      },
  };
  for (const Factory& factory : factories) {
    std::unique_ptr<core::KiMethod> method = factory();
    SCOPED_TRACE(method->name());
    obs::Registry::Snapshot before = obs::Registry::Get().TakeSnapshot();
    method->Train(data);
    obs::Registry::Snapshot after = obs::Registry::Get().TakeSnapshot();
    EXPECT_EQ(obs::Registry::CounterDelta(before, after, "trainer/steps"),
              kSteps);
    EXPECT_EQ(obs::Registry::CounterDelta(before, after, "trainer/examples"),
              kSteps * kBatch);
  }
}

}  // namespace
}  // namespace infuserki::peft
