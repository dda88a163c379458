#include <gtest/gtest.h>

#include "core/adapter_stack.h"
#include "model/transformer.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace infuserki::core {
namespace {

AdapterStackOptions Opts(int first, int last,
                         AdapterPlacement placement =
                             AdapterPlacement::kFfn) {
  AdapterStackOptions options;
  options.first_layer = first;
  options.last_layer = last;
  options.placement = placement;
  options.bottleneck = 4;
  return options;
}

TEST(AdapterStack, AdaptedLayerRange) {
  KnowledgeAdapterStack stack(8, 6, Opts(2, 4));
  EXPECT_FALSE(stack.IsAdapted(0));
  EXPECT_FALSE(stack.IsAdapted(1));
  EXPECT_TRUE(stack.IsAdapted(2));
  EXPECT_TRUE(stack.IsAdapted(3));
  EXPECT_TRUE(stack.IsAdapted(4));
  EXPECT_FALSE(stack.IsAdapted(5));
}

TEST(AdapterStack, LastLayerDefaultsToDeepest) {
  KnowledgeAdapterStack stack(8, 6, Opts(1, -1));
  EXPECT_TRUE(stack.IsAdapted(5));
  EXPECT_FALSE(stack.IsAdapted(0));
}

TEST(AdapterStack, FreshStackIsExactNoOp) {
  // Zero-initialized up-projections: deltas must be exactly zero.
  KnowledgeAdapterStack stack(8, 4, Opts(0, -1));
  stack.BeginForward();
  util::Rng rng(1);
  for (int layer = 0; layer < 4; ++layer) {
    tensor::Tensor input = tensor::Tensor::Randn({3, 8}, &rng);
    tensor::Tensor delta = stack.Delta(AdapterPlacement::kFfn, layer, input);
    ASSERT_TRUE(delta.defined());
    for (float v : delta.vec()) EXPECT_EQ(v, 0.0f);
  }
}

TEST(AdapterStack, NonAdaptedLayerReturnsUndefined) {
  KnowledgeAdapterStack stack(8, 6, Opts(3, 4));
  stack.BeginForward();
  util::Rng rng(2);
  tensor::Tensor input = tensor::Tensor::Randn({2, 8}, &rng);
  EXPECT_FALSE(stack.Delta(AdapterPlacement::kFfn, 0, input).defined());
  EXPECT_TRUE(stack.Delta(AdapterPlacement::kFfn, 3, input).defined());
}

TEST(AdapterStack, PlacementRouting) {
  KnowledgeAdapterStack ffn(8, 4, Opts(0, -1, AdapterPlacement::kFfn));
  KnowledgeAdapterStack attn(8, 4,
                             Opts(0, -1, AdapterPlacement::kAttention));
  util::Rng rng(3);
  tensor::Tensor input = tensor::Tensor::Randn({2, 8}, &rng);
  ffn.BeginForward();
  attn.BeginForward();
  EXPECT_TRUE(ffn.Delta(AdapterPlacement::kFfn, 0, input).defined());
  EXPECT_FALSE(ffn.Delta(AdapterPlacement::kAttention, 0, input).defined());
  EXPECT_FALSE(attn.Delta(AdapterPlacement::kFfn, 0, input).defined());
  EXPECT_TRUE(attn.Delta(AdapterPlacement::kAttention, 0, input).defined());
  // The off-placement call returns before touching the chain or the gate.
  EXPECT_EQ(ffn.infusing_scores().size(), 1u);
  EXPECT_EQ(attn.infusing_scores().size(), 1u);
}

TEST(AdapterStack, InfusingScoresRecordedPerLayer) {
  KnowledgeAdapterStack stack(8, 5, Opts(1, 3));
  stack.BeginForward();
  util::Rng rng(4);
  tensor::Tensor input = tensor::Tensor::Randn({2, 8}, &rng);
  for (int layer = 0; layer < 5; ++layer) {
    (void)stack.Delta(AdapterPlacement::kFfn, layer, input);
  }
  ASSERT_EQ(stack.infusing_scores().size(), 3u);
  EXPECT_EQ(stack.infusing_scores()[0].first, 1);
  EXPECT_EQ(stack.infusing_scores()[2].first, 3);
  for (const auto& [layer, score] : stack.infusing_scores()) {
    EXPECT_GE(score, 0.0f);
    EXPECT_LE(score, 1.0f);
  }
  EXPECT_EQ(stack.infuser_logits().size(), 3u);
  // BeginForward clears.
  stack.BeginForward();
  EXPECT_TRUE(stack.infusing_scores().empty());
}

TEST(AdapterStack, DefaultClosedGate) {
  // Fresh gates sit near zero (bias init), not at the sigmoid midpoint.
  KnowledgeAdapterStack stack(8, 3, Opts(0, -1));
  stack.BeginForward();
  util::Rng rng(5);
  tensor::Tensor input = tensor::Tensor::Randn({2, 8}, &rng, 0.1f);
  (void)stack.Delta(AdapterPlacement::kFfn, 0, input);
  EXPECT_LT(stack.infusing_scores()[0].second, 0.3f);
}

TEST(AdapterStack, GateOverride) {
  AdapterStackOptions options = Opts(0, -1);
  KnowledgeAdapterStack stack(8, 2, options);
  // Give the up-projection nonzero weights so deltas are visible.
  for (tensor::Tensor& t : stack.AdapterParameters()) {
    for (float& v : t.impl()->data) v = 0.1f;
  }
  util::Rng rng(6);
  tensor::Tensor input = tensor::Tensor::Randn({2, 8}, &rng);
  stack.set_gate_override(0.0f);
  stack.BeginForward();
  tensor::Tensor closed = stack.Delta(AdapterPlacement::kFfn, 0, input);
  for (float v : closed.vec()) EXPECT_EQ(v, 0.0f);
  stack.set_gate_override(1.0f);
  stack.BeginForward();
  tensor::Tensor open = stack.Delta(AdapterPlacement::kFfn, 0, input);
  float magnitude = 0.0f;
  for (float v : open.vec()) magnitude += std::fabs(v);
  EXPECT_GT(magnitude, 0.0f);
  stack.set_gate_override(-1.0f);
  EXPECT_EQ(stack.gate_override(), -1.0f);
}

TEST(AdapterStack, WithoutInfuserDeltaUngated) {
  AdapterStackOptions options = Opts(0, -1);
  options.use_infuser = false;
  KnowledgeAdapterStack stack(8, 2, options);
  stack.BeginForward();
  util::Rng rng(7);
  tensor::Tensor input = tensor::Tensor::Randn({2, 8}, &rng);
  (void)stack.Delta(AdapterPlacement::kFfn, 0, input);
  EXPECT_TRUE(stack.infusing_scores().empty());  // no gate evaluated
}

TEST(AdapterStack, ChainFlowsAcrossLayers) {
  // With nonzero adapters, the layer-1 delta must depend on the layer-0
  // input through the chain H_A^{l-1}.
  AdapterStackOptions options = Opts(0, -1);
  options.use_infuser = false;
  KnowledgeAdapterStack stack(8, 2, options);
  for (tensor::Tensor& t : stack.AdapterParameters()) {
    util::Rng rng(8);
    for (float& v : t.impl()->data) {
      v = static_cast<float>(rng.Normal(0.0, 0.1));
    }
  }
  util::Rng rng(9);
  tensor::Tensor layer0_a = tensor::Tensor::Randn({2, 8}, &rng);
  tensor::Tensor layer0_b = tensor::Tensor::Randn({2, 8}, &rng);
  tensor::Tensor layer1 = tensor::Tensor::Randn({2, 8}, &rng);

  stack.BeginForward();
  (void)stack.Delta(AdapterPlacement::kFfn, 0, layer0_a);
  tensor::Tensor delta_a = stack.Delta(AdapterPlacement::kFfn, 1, layer1);

  stack.BeginForward();
  (void)stack.Delta(AdapterPlacement::kFfn, 0, layer0_b);
  tensor::Tensor delta_b = stack.Delta(AdapterPlacement::kFfn, 1, layer1);

  float diff = 0.0f;
  for (size_t i = 0; i < delta_a.size(); ++i) {
    diff += std::fabs(delta_a.data()[i] - delta_b.data()[i]);
  }
  EXPECT_GT(diff, 1e-6f) << "chain state not carried across layers";
}

TEST(AdapterStack, ParameterSplit) {
  KnowledgeAdapterStack stack(8, 4, Opts(1, 2));
  size_t adapters = 0, infusers = 0;
  for (const tensor::Tensor& t : stack.AdapterParameters()) {
    adapters += t.size();
  }
  for (const tensor::Tensor& t : stack.InfuserParameters()) {
    infusers += t.size();
  }
  EXPECT_GT(adapters, 0u);
  EXPECT_GT(infusers, 0u);
  EXPECT_EQ(adapters + infusers, stack.NumParameters());
}

}  // namespace
}  // namespace infuserki::core
