#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace infuserki::tensor {
namespace {

/// [m, n] -> [n, m] copy of a constant 2-D tensor (no autograd).
Tensor Transposed(const Tensor& a) {
  size_t m = a.dim(0), n = a.dim(1);
  std::vector<float> out(m * n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) out[j * m + i] = a.at(i, j);
  }
  return Tensor::FromData({n, m}, out);
}

TEST(Tensor, Creation) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.size(), 6u);
  EXPECT_EQ(z.rank(), 2u);
  for (float v : z.vec()) EXPECT_EQ(v, 0.0f);
  Tensor f = Tensor::Full({4}, 2.5f);
  for (float v : f.vec()) EXPECT_EQ(v, 2.5f);
  Tensor s = Tensor::Scalar(3.0f);
  EXPECT_EQ(s.item(), 3.0f);
}

TEST(Tensor, FromDataAndAt) {
  Tensor t = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
}

TEST(Tensor, CopySharesStorage) {
  Tensor a = Tensor::Zeros({3});
  Tensor b = a;
  b.data()[0] = 5.0f;
  EXPECT_EQ(a.data()[0], 5.0f);
}

TEST(Tensor, DetachCopiesData) {
  Tensor a = Tensor::FromData({2}, {1, 2}, /*requires_grad=*/true);
  Tensor d = a.Detach();
  EXPECT_FALSE(d.requires_grad());
  d.data()[0] = 9.0f;
  EXPECT_EQ(a.data()[0], 1.0f);
}

TEST(Tensor, BackwardSimpleChain) {
  Tensor x = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  Tensor y = MulScalar(x, 2.0f);     // y = 2x
  Tensor loss = Mul(y, y);           // loss = 4x^2
  SumAll(loss).Backward();
  ASSERT_EQ(x.grad().size(), 1u);
  EXPECT_FLOAT_EQ(x.grad()[0], 24.0f);  // d/dx 4x^2 = 8x = 24
}

TEST(Tensor, GradAccumulatesAcrossBackwards) {
  Tensor x = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  SumAll(MulScalar(x, 3.0f)).Backward();
  SumAll(MulScalar(x, 3.0f)).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(Tensor, DiamondGraphGradient) {
  // z = x*x + x*x: gradient must accumulate through both branches.
  Tensor x = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  Tensor a = Mul(x, x);
  Tensor z = Add(a, a);
  z.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);  // d/dx 2x^2 = 4x
}

TEST(Tensor, NoGradGuardDisablesGraph) {
  Tensor x = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  {
    NoGradGuard guard;
    Tensor y = MulScalar(x, 2.0f);
    EXPECT_FALSE(y.requires_grad());
  }
  Tensor y = MulScalar(x, 2.0f);
  EXPECT_TRUE(y.requires_grad());
}

TEST(Tensor, ShapeHelpers) {
  EXPECT_EQ(NumElements({2, 3, 4}), 24u);
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
}

TEST(Ops, MatmulValues) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 2}, {5, 6, 7, 8});
  Tensor c = Matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, MatmulNTMatchesMatmulTranspose) {
  util::Rng rng(11);
  Tensor a = Tensor::Randn({3, 4}, &rng);
  Tensor b = Tensor::Randn({5, 4}, &rng);
  Tensor nt = MatmulNT(a, b);
  Tensor reference = Matmul(a, Transposed(b));
  for (size_t i = 0; i < nt.size(); ++i) {
    EXPECT_NEAR(nt.data()[i], reference.data()[i], 1e-5f);
  }
}

TEST(Ops, MatmulAndMatmulNTAgreeOnNonFinite) {
  // Zeros in `a` meeting Inf in `b`: 0 * Inf is NaN on every GEMM layout,
  // so Matmul and MatmulNT give the same bits (no zero-multiplier skip).
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> a_values = {0, 1, 2, 0, 0, 0, 0, 0, 1, 2, 3, 4};
  std::vector<float> b_values = {inf, 1, 0, 1, 2, 3, 0, 1, -inf, 1, 1, 1};
  Tensor a = Tensor::FromData({3, 4}, a_values);
  Tensor b = Tensor::FromData({4, 3}, b_values);
  Tensor nn = Matmul(a, b);
  Tensor nt = MatmulNT(a, Transposed(b));
  ASSERT_EQ(nn.shape(), nt.shape());
  EXPECT_EQ(std::memcmp(nn.data(), nt.data(), nn.size() * sizeof(float)), 0);
  EXPECT_TRUE(std::isnan(nn.at(0, 0)));  // 0 * inf
  EXPECT_TRUE(std::isnan(nn.at(1, 0)));  // an all-zero row still meets inf
  EXPECT_TRUE(std::isnan(nn.at(1, 2)));
  EXPECT_FLOAT_EQ(nn.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(nn.at(1, 1), 0.0f);
  EXPECT_EQ(nn.at(2, 0), inf);
  EXPECT_EQ(nn.at(2, 2), -inf);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  util::Rng rng(12);
  Tensor a = Tensor::Randn({4, 7}, &rng, 3.0f);
  Tensor s = Softmax(a);
  for (size_t r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (size_t c = 0; c < 7; ++c) sum += s.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxNumericallyStable) {
  Tensor a = Tensor::FromData({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor s = Softmax(a);
  for (size_t c = 0; c < 3; ++c) EXPECT_NEAR(s.at(0, c), 1.0f / 3, 1e-5f);
}

TEST(Ops, RmsNormUnitScale) {
  Tensor x = Tensor::FromData({1, 4}, {2, 2, 2, 2});
  Tensor w = Tensor::Full({4}, 1.0f);
  Tensor y = RmsNorm(x, w);
  for (size_t c = 0; c < 4; ++c) EXPECT_NEAR(y.at(0, c), 1.0f, 1e-3f);
}

TEST(Ops, CrossEntropyPerfectPrediction) {
  // Very confident correct logits: loss near zero.
  Tensor logits = Tensor::FromData({1, 3}, {100.0f, 0.0f, 0.0f});
  Tensor loss = CrossEntropy(logits, {0});
  EXPECT_NEAR(loss.item(), 0.0f, 1e-4f);
}

TEST(Ops, CrossEntropyUniform) {
  Tensor logits = Tensor::Zeros({2, 4});
  Tensor loss = CrossEntropy(logits, {1, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5f);
}

TEST(Ops, BceWithLogitsKnownValue) {
  Tensor logits = Tensor::FromData({2}, {0.0f, 0.0f});
  Tensor loss = BceWithLogits(logits, {1.0f, 0.0f});
  EXPECT_NEAR(loss.item(), std::log(2.0f), 1e-5f);
}

TEST(Ops, GatherRowsValues) {
  Tensor table = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor rows = GatherRows(table, {2, 0});
  EXPECT_FLOAT_EQ(rows.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(rows.at(1, 1), 2.0f);
}

TEST(Ops, MeanAxis0Values) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 3, 4, 5});
  Tensor m = MeanAxis0(a);
  EXPECT_FLOAT_EQ(m.data()[0], 2.0f);
  EXPECT_FLOAT_EQ(m.data()[1], 3.0f);
  EXPECT_FLOAT_EQ(m.data()[2], 4.0f);
}

TEST(Attention, CausalityProperty) {
  // Changing a future key/value must not affect earlier outputs.
  util::Rng rng(14);
  Tensor q = Tensor::Randn({4, 8}, &rng);
  Tensor k = Tensor::Randn({4, 8}, &rng);
  Tensor v = Tensor::Randn({4, 8}, &rng);
  Tensor out1 = CausalSelfAttention(q, k, v, 2);
  // Perturb the last row of k and v.
  for (size_t c = 0; c < 8; ++c) {
    k.data()[3 * 8 + c] += 10.0f;
    v.data()[3 * 8 + c] -= 7.0f;
  }
  Tensor out2 = CausalSelfAttention(q, k, v, 2);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(out1.at(i, c), out2.at(i, c), 1e-5f)
          << "future leak at row " << i;
    }
  }
}

TEST(Attention, PrefixVisibleToAllQueries) {
  util::Rng rng(15);
  Tensor q = Tensor::Randn({2, 4}, &rng);
  Tensor k = Tensor::Randn({3, 4}, &rng);  // 1 prefix + 2
  Tensor v = Tensor::Randn({3, 4}, &rng);
  Tensor out1 = CausalSelfAttention(q, k, v, 1, /*prefix_len=*/1);
  // Perturb the prefix value row; ALL outputs must change.
  for (size_t c = 0; c < 4; ++c) v.data()[c] += 5.0f;
  Tensor out2 = CausalSelfAttention(q, k, v, 1, /*prefix_len=*/1);
  for (size_t i = 0; i < 2; ++i) {
    float diff = 0.0f;
    for (size_t c = 0; c < 4; ++c) {
      diff += std::fabs(out1.at(i, c) - out2.at(i, c));
    }
    EXPECT_GT(diff, 1e-4f) << "prefix not visible to query " << i;
  }
}

TEST(Attention, SingleTokenIsIdentityOverV) {
  // One query, one key: attention weight is 1, output = v's head slices.
  Tensor q = Tensor::FromData({1, 4}, {1, 2, 3, 4});
  Tensor k = Tensor::FromData({1, 4}, {0, 0, 0, 0});
  Tensor v = Tensor::FromData({1, 4}, {5, 6, 7, 8});
  Tensor out = CausalSelfAttention(q, k, v, 2);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(out.at(0, c), v.at(0, c), 1e-5f);
  }
}

}  // namespace
}  // namespace infuserki::tensor
