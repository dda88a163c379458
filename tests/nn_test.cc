#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "tensor/checkpoint.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "util/rng.h"

namespace infuserki::tensor {
namespace {

TEST(Linear, ShapesAndBias) {
  util::Rng rng(1);
  Linear linear(4, 3, &rng);
  Tensor x = Tensor::Randn({2, 4}, &rng);
  Tensor y = linear.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3}));
  EXPECT_EQ(linear.NumParameters(), 4u * 3u + 3u);
}

TEST(Linear, NoBias) {
  util::Rng rng(2);
  Linear linear(4, 3, &rng, /*with_bias=*/false);
  EXPECT_EQ(linear.NumParameters(), 12u);
  // Zero input -> zero output without bias.
  Tensor y = linear.Forward(Tensor::Zeros({1, 4}));
  for (float v : y.vec()) EXPECT_EQ(v, 0.0f);
}

TEST(Linear, LoraStartsAsNoOp) {
  util::Rng rng(3);
  Linear linear(6, 6, &rng);
  Tensor x = Tensor::Randn({2, 6}, &rng);
  Tensor before = linear.Forward(x);
  linear.AttachLora(MakeLoraDelta(6, 6, 2, 1.0f, &rng));
  Tensor after = linear.Forward(x);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(before.data()[i], after.data()[i]);
  }
  EXPECT_TRUE(linear.has_lora());
  linear.DetachLora();
  EXPECT_FALSE(linear.has_lora());
}

TEST(Linear, LoraDeltaChangesOutputAfterTraining) {
  util::Rng rng(4);
  Linear linear(4, 4, &rng);
  auto delta = MakeLoraDelta(4, 4, 2, 1.0f, &rng);
  // Make B nonzero by hand.
  for (float& v : delta->b.impl()->data) v = 0.5f;
  linear.AttachLora(delta);
  Tensor x = Tensor::Full({1, 4}, 1.0f);
  Tensor with = linear.Forward(x);
  linear.DetachLora();
  Tensor without = linear.Forward(x);
  float diff = 0.0f;
  for (size_t i = 0; i < with.size(); ++i) {
    diff += std::fabs(with.data()[i] - without.data()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(Linear, QuantizeWeightsBoundedError) {
  util::Rng rng(5);
  Linear linear(32, 32, &rng);
  std::vector<float> original = linear.weight().vec();
  float err = linear.QuantizeWeights(16);
  EXPECT_GT(err, 0.0f);
  // Quantization error per block is bounded by scale/2 = absmax/14.
  float absmax = 0.0f;
  for (float v : original) absmax = std::max(absmax, std::fabs(v));
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_LE(std::fabs(linear.weight().vec()[i] - original[i]),
              absmax / 14.0f + 1e-6f);
  }
  // Idempotent: re-quantizing quantized weights is (almost) a no-op.
  EXPECT_NEAR(linear.QuantizeWeights(16), 0.0f, 1e-6f);
}

TEST(Embedding, LookupMatchesTable) {
  util::Rng rng(6);
  Embedding embedding(5, 3, &rng);
  Tensor rows = embedding.Forward({4, 0});
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(rows.at(0, c), embedding.table().at(4, c));
    EXPECT_FLOAT_EQ(rows.at(1, c), embedding.table().at(0, c));
  }
}

TEST(Mlp, ForwardShape) {
  util::Rng rng(7);
  Mlp mlp(6, 8, 2, &rng);
  Tensor y = mlp.Forward(Tensor::Randn({3, 6}, &rng));
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
}

TEST(Module, NamedParameterPaths) {
  util::Rng rng(8);
  Mlp mlp(4, 4, 1, &rng);
  std::vector<std::string> names;
  for (const NamedParameter& p : mlp.NamedParameters()) {
    names.push_back(p.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "fc1.weight"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "fc2.bias"), names.end());
}

TEST(Module, SetTrainableFreezes) {
  util::Rng rng(9);
  Linear linear(3, 3, &rng);
  linear.SetTrainable(false);
  for (const Tensor& p : linear.Parameters()) {
    EXPECT_FALSE(p.requires_grad());
  }
  linear.SetTrainable(true);
  for (const Tensor& p : linear.Parameters()) {
    EXPECT_TRUE(p.requires_grad());
  }
}

TEST(Optimizer, AdamWConvergesOnQuadratic) {
  Tensor x = Tensor::Scalar(5.0f, /*requires_grad=*/true);
  AdamW adam({x}, {.lr = 0.3f, .weight_decay = 0.0f});
  for (int i = 0; i < 200; ++i) {
    SumAll(Mul(x, x)).Backward();
    adam.Step();
    adam.ZeroGrad();
  }
  EXPECT_NEAR(x.item(), 0.0f, 1e-2f);
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  Tensor x = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  AdamW adam({x}, {.lr = 0.1f, .weight_decay = 0.5f});
  // Gradient-free steps: ensure decay path needs a grad buffer.
  SumAll(MulScalar(x, 0.0f)).Backward();
  float before = x.item();
  adam.Step();
  EXPECT_LT(x.item(), before);
}

TEST(Optimizer, SkipsUntouchedParams) {
  Tensor used = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  Tensor unused = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  AdamW adam({used, unused}, {.lr = 0.1f});
  SumAll(Mul(used, used)).Backward();
  adam.Step();
  EXPECT_NE(used.item(), 1.0f);
  EXPECT_EQ(unused.item(), 1.0f);
}

TEST(Optimizer, ClipGradNorm) {
  Tensor a = Tensor::FromData({2}, {0, 0}, /*requires_grad=*/true);
  SumAll(MulScalar(a, 30.0f)).Backward();  // grad = [30, 30]
  float norm = ClipGradNorm({a}, 1.0f);
  EXPECT_NEAR(norm, std::sqrt(1800.0f), 1e-2f);
  float clipped = std::sqrt(a.grad()[0] * a.grad()[0] +
                            a.grad()[1] * a.grad()[1]);
  EXPECT_NEAR(clipped, 1.0f, 1e-4f);
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  util::Rng rng(10);
  Mlp source(4, 5, 2, &rng);
  Mlp target(4, 5, 2, &rng);
  std::string path = ::testing::TempDir() + "/ckpt_roundtrip.bin";
  ASSERT_TRUE(SaveParameters(source.NamedParameters(), path).ok());
  ASSERT_TRUE(LoadParameters(target.NamedParameters(), path).ok());
  std::vector<NamedParameter> a = source.NamedParameters();
  std::vector<NamedParameter> b = target.NamedParameters();
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a[i].tensor.size(); ++j) {
      EXPECT_EQ(a[i].tensor.data()[j], b[i].tensor.data()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ShapeMismatchRejected) {
  util::Rng rng(11);
  Mlp source(4, 5, 2, &rng);
  Mlp wrong(4, 6, 2, &rng);  // different hidden width
  std::string path = ::testing::TempDir() + "/ckpt_mismatch.bin";
  ASSERT_TRUE(SaveParameters(source.NamedParameters(), path).ok());
  util::Status status = LoadParameters(wrong.NamedParameters(), path);
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsNotFound) {
  util::Rng rng(12);
  Mlp model(2, 2, 1, &rng);
  util::Status status =
      LoadParameters(model.NamedParameters(), "/nonexistent/dir/x.bin");
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(Checkpoint, TruncatedFileIsDataLoss) {
  util::Rng rng(13);
  Mlp model(4, 5, 2, &rng);
  std::string path = ::testing::TempDir() + "/ckpt_truncated.bin";
  ASSERT_TRUE(SaveParameters(model.NamedParameters(), path).ok());
  // Truncate the file to half.
  {
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size() / 2));
  }
  util::Status status = LoadParameters(model.NamedParameters(), path);
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace infuserki::tensor
