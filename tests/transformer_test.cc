#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "model/generation.h"
#include "model/transformer.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace infuserki::model {
namespace {

TransformerConfig TinyConfig() {
  TransformerConfig config;
  config.vocab_size = 50;
  config.dim = 16;
  config.num_layers = 3;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  config.max_seq_len = 24;
  return config;
}

TEST(TransformerLM, Shapes) {
  util::Rng rng(1);
  TransformerLM lm(TinyConfig(), &rng);
  tensor::Tensor h = lm.Hidden({4, 5, 6});
  EXPECT_EQ(h.shape(), (tensor::Shape{3, 16}));
  tensor::Tensor logits = lm.Logits({4, 5, 6});
  EXPECT_EQ(logits.shape(), (tensor::Shape{3, 50}));
}

TEST(TransformerLM, CausalProperty) {
  // Logits at position t must not depend on tokens after t.
  util::Rng rng(2);
  TransformerLM lm(TinyConfig(), &rng);
  tensor::NoGradGuard no_grad;
  tensor::Tensor a = lm.Logits({4, 5, 6, 7});
  tensor::Tensor b = lm.Logits({4, 5, 6, 9});  // change last token only
  for (size_t pos = 0; pos < 3; ++pos) {
    for (size_t v = 0; v < 50; ++v) {
      EXPECT_NEAR(a.at(pos, v), b.at(pos, v), 1e-4f)
          << "future token leaked into position " << pos;
    }
  }
}

TEST(TransformerLM, NextTokenLossFiniteAndMaskable) {
  util::Rng rng(3);
  TransformerLM lm(TinyConfig(), &rng);
  std::vector<int> tokens = {1, 4, 5, 6, 2};
  float full = lm.NextTokenLoss(tokens).item();
  EXPECT_GT(full, 0.0f);
  EXPECT_LT(full, 20.0f);
  float masked = lm.NextTokenLoss(tokens, /*loss_start=*/3).item();
  EXPECT_GT(masked, 0.0f);
  EXPECT_NE(full, masked);
}

TEST(TransformerLM, TraceRecordsPerLayer) {
  util::Rng rng(4);
  TransformerLM lm(TinyConfig(), &rng);
  ForwardTrace trace;
  trace.record_ffn_inputs = true;
  trace.record_layer_outputs = true;
  ForwardOptions options;
  options.trace = &trace;
  (void)lm.Hidden({4, 5}, options);
  EXPECT_EQ(trace.ffn_inputs.size(), 3u);
  EXPECT_EQ(trace.layer_outputs.size(), 3u);
  EXPECT_EQ(trace.ffn_inputs[0].shape(), (tensor::Shape{2, 16}));
}

// A SublayerHook that adds a constant on `target` and records which
// (sublayer, layer) points fired.
class ProbeHook : public SublayerHook {
 public:
  void BeginForward() override { calls.clear(); }
  tensor::Tensor Delta(AdapterAttachment sublayer, int layer,
                       const tensor::Tensor& input) override {
    calls.emplace_back(sublayer, layer);
    if (sublayer != target) return tensor::Tensor();
    return tensor::Tensor::Full(input.shape(), bump);
  }
  std::vector<std::pair<AdapterAttachment, int>> calls;
  AdapterAttachment target = AdapterAttachment::kFfn;
  float bump = 0.0f;
};

TEST(TransformerLM, SublayerHookCalledPerSublayerAndAffectsOutput) {
  util::Rng rng(5);
  TransformerLM lm(TinyConfig(), &rng);
  ProbeHook hook;
  ForwardOptions options;
  options.hook = &hook;
  tensor::NoGradGuard no_grad;
  tensor::Tensor base = lm.Hidden({4, 5, 6});
  tensor::Tensor unchanged = lm.Hidden({4, 5, 6}, options);
  // Attention first, then FFN, in every layer.
  std::vector<std::pair<AdapterAttachment, int>> expected;
  for (int layer = 0; layer < 3; ++layer) {
    expected.emplace_back(AdapterAttachment::kAttention, layer);
    expected.emplace_back(AdapterAttachment::kFfn, layer);
  }
  EXPECT_EQ(hook.calls, expected);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(base.data()[i], unchanged.data()[i], 1e-5f);
  }
  hook.bump = 1.0f;
  tensor::Tensor bumped = lm.Hidden({4, 5, 6}, options);
  hook.target = AdapterAttachment::kAttention;
  tensor::Tensor attn_bumped = lm.Hidden({4, 5, 6}, options);
  float diff = 0.0f;
  float attn_diff = 0.0f;
  for (size_t i = 0; i < base.size(); ++i) {
    diff += std::fabs(base.data()[i] - bumped.data()[i]);
    attn_diff += std::fabs(bumped.data()[i] - attn_bumped.data()[i]);
  }
  EXPECT_GT(diff, 0.1f);
  EXPECT_GT(attn_diff, 0.1f);  // the attention-side delta lands elsewhere
}

TEST(TransformerLM, PrefixChangesOutputs) {
  util::Rng rng(6);
  TransformerConfig config = TinyConfig();
  TransformerLM lm(config, &rng);
  PrefixKv prefix;
  prefix.prefix_len = 2;
  for (size_t l = 0; l < config.num_layers; ++l) {
    prefix.keys.push_back(
        tensor::Tensor::Randn({2, config.dim}, &rng, 0.5f));
    prefix.values.push_back(
        tensor::Tensor::Randn({2, config.dim}, &rng, 0.5f));
  }
  ForwardOptions options;
  options.prefix = &prefix;
  tensor::NoGradGuard no_grad;
  tensor::Tensor base = lm.Logits({4, 5});
  tensor::Tensor with_prefix = lm.Logits({4, 5}, options);
  float diff = 0.0f;
  for (size_t i = 0; i < base.size(); ++i) {
    diff += std::fabs(base.data()[i] - with_prefix.data()[i]);
  }
  EXPECT_GT(diff, 0.1f);
}

TEST(Generation, GreedyDeterministic) {
  util::Rng rng(7);
  TransformerLM lm(TinyConfig(), &rng);
  std::vector<int> a = GreedyDecode(lm, {1, 4, 5}, 5);
  std::vector<int> b = GreedyDecode(lm, {1, 4, 5}, 5);
  EXPECT_EQ(a, b);
  EXPECT_LE(a.size(), 5u);
}

TEST(Generation, SequenceLogProbNegativeAndConsistent) {
  util::Rng rng(8);
  TransformerLM lm(TinyConfig(), &rng);
  double lp = SequenceLogProb(lm, {1, 4}, {5, 6});
  EXPECT_LT(lp, 0.0);
  // Sum over a longer continuation is more negative (probabilities < 1).
  double lp_longer = SequenceLogProb(lm, {1, 4}, {5, 6, 7});
  EXPECT_LT(lp_longer, lp);
}

TEST(Generation, ScoreOptionsPicksHigherLikelihood) {
  util::Rng rng(9);
  TransformerLM lm(TinyConfig(), &rng);
  text::Tokenizer tokenizer = text::Tokenizer::Build({"alpha beta gamma"});
  OptionScores scores =
      ScoreOptions(lm, tokenizer, "alpha", {"beta", "gamma"});
  ASSERT_EQ(scores.log_probs.size(), 2u);
  ASSERT_EQ(scores.probabilities.size(), 2u);
  EXPECT_NEAR(scores.probabilities[0] + scores.probabilities[1], 1.0,
              1e-6);
  int expected =
      scores.log_probs[0] >= scores.log_probs[1] ? 0 : 1;  // same length
  EXPECT_EQ(scores.best, expected);
}

}  // namespace
}  // namespace infuserki::model
