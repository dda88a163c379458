#include <gtest/gtest.h>

#include "tensor/nn.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tests/gradcheck.h"
#include "util/rng.h"

namespace infuserki::tensor {
namespace {

using infuserki::testing::ExpectGradientsMatch;

Tensor RandInput(Shape shape, uint64_t seed, float stddev = 1.0f) {
  util::Rng rng(seed);
  return Tensor::Randn(std::move(shape), &rng, stddev,
                       /*requires_grad=*/true);
}

TEST(GradCheck, AddSameShape) {
  Tensor a = RandInput({3, 4}, 1);
  Tensor b = RandInput({3, 4}, 2);
  ExpectGradientsMatch([&] { return SumAll(Add(a, b)); }, {a, b});
}

TEST(GradCheck, AddBroadcastBias) {
  Tensor a = RandInput({3, 4}, 3);
  Tensor b = RandInput({4}, 4);
  ExpectGradientsMatch([&] { return SumAll(Mul(Add(a, b), Add(a, b))); },
                       {a, b});
}

TEST(GradCheck, AddBroadcastScalar) {
  Tensor a = RandInput({2, 3}, 5);
  Tensor s = RandInput({1}, 6);
  ExpectGradientsMatch([&] { return SumAll(Mul(Add(a, s), a)); }, {a, s});
}

TEST(GradCheck, Mul) {
  Tensor a = RandInput({2, 5}, 7);
  Tensor b = RandInput({2, 5}, 8);
  ExpectGradientsMatch([&] { return SumAll(Mul(Mul(a, b), b)); }, {a, b});
}

TEST(GradCheck, MulScalar) {
  Tensor a = RandInput({6}, 9);
  ExpectGradientsMatch(
      [&] { return SumAll(Mul(MulScalar(a, -2.0f), a)); }, {a});
}

TEST(GradCheck, Matmul) {
  Tensor a = RandInput({3, 4}, 10);
  Tensor b = RandInput({4, 2}, 11);
  ExpectGradientsMatch([&] { return SumAll(Mul(Matmul(a, b), Matmul(a, b))); },
                       {a, b});
}

TEST(GradCheck, MatmulNT) {
  Tensor a = RandInput({3, 4}, 12);
  Tensor b = RandInput({5, 4}, 13);
  ExpectGradientsMatch([&] { return SumAll(MatmulNT(a, b)); }, {a, b});
}

TEST(GradCheck, Reshape) {
  Tensor a = RandInput({2, 6}, 15);
  ExpectGradientsMatch(
      [&] { return SumAll(Mul(Reshape(a, {3, 4}), Reshape(a, {3, 4}))); },
      {a});
}

TEST(GradCheck, Relu) {
  // Offset away from zero: ReLU is non-differentiable at the kink.
  Tensor a = RandInput({10}, 16);
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.data()[i]) < 0.1f) a.data()[i] += 0.5f;
  }
  ExpectGradientsMatch([&] { return SumAll(Mul(Relu(a), a)); }, {a});
}

TEST(GradCheck, Gelu) {
  Tensor a = RandInput({10}, 17);
  ExpectGradientsMatch([&] { return SumAll(Gelu(a)); }, {a});
}

TEST(GradCheck, Silu) {
  Tensor a = RandInput({10}, 18);
  ExpectGradientsMatch([&] { return SumAll(Silu(a)); }, {a});
}

TEST(GradCheck, SigmoidAndTanh) {
  Tensor a = RandInput({8}, 19);
  ExpectGradientsMatch([&] { return SumAll(Mul(Sigmoid(a), Tanh(a))); },
                       {a});
}

TEST(GradCheck, Softmax) {
  Tensor a = RandInput({3, 5}, 20);
  Tensor w = RandInput({3, 5}, 21);
  ExpectGradientsMatch([&] { return SumAll(Mul(Softmax(a), w)); }, {a, w});
}

TEST(GradCheck, RmsNorm) {
  Tensor x = RandInput({3, 6}, 22);
  Tensor w = RandInput({6}, 23);
  ExpectGradientsMatch([&] { return SumAll(Mul(RmsNorm(x, w), x)); },
                       {x, w});
}

TEST(GradCheck, EmbeddingForward) {
  util::Rng rng(27);
  Embedding embedding(7, 4, &rng, /*init_stddev=*/1.0f);
  std::vector<int> ids = {2, 5, 2, 0};
  ExpectGradientsMatch(
      [&] {
        Tensor rows = embedding.Forward(ids);
        return SumAll(Mul(rows, rows));
      },
      {embedding.table()});
}

TEST(GradCheck, GatherRows) {
  Tensor a = RandInput({6, 3}, 28);
  std::vector<int> rows = {1, 4, 1};
  ExpectGradientsMatch(
      [&] {
        Tensor picked = GatherRows(a, rows);
        return SumAll(Mul(picked, picked));
      },
      {a});
}

TEST(GradCheck, Concat1d) {
  Tensor a = RandInput({4}, 29);
  Tensor b = RandInput({3}, 30);
  ExpectGradientsMatch(
      [&] {
        Tensor c = Concat1d(a, b);
        return SumAll(Mul(c, c));
      },
      {a, b});
}

TEST(GradCheck, ConcatRows) {
  Tensor a = RandInput({2, 3}, 31);
  Tensor b = RandInput({4, 3}, 32);
  ExpectGradientsMatch(
      [&] {
        Tensor c = ConcatRows(a, b);
        return SumAll(Mul(c, c));
      },
      {a, b});
}

TEST(GradCheck, MeanReductions) {
  Tensor a = RandInput({4, 3}, 33);
  ExpectGradientsMatch(
      [&] {
        Tensor m = MeanAxis0(a);
        return SumAll(Mul(m, m));
      },
      {a});
}

TEST(GradCheck, CrossEntropy) {
  Tensor logits = RandInput({4, 6}, 34);
  std::vector<int> targets = {1, 5, 0, 3};
  ExpectGradientsMatch([&] { return CrossEntropy(logits, targets); },
                       {logits});
}

TEST(GradCheck, CrossEntropyIgnoreIndex) {
  Tensor logits = RandInput({4, 6}, 35);
  std::vector<int> targets = {1, -1, 0, -1};
  ExpectGradientsMatch([&] { return CrossEntropy(logits, targets, -1); },
                       {logits});
}

TEST(GradCheck, BceWithLogits) {
  Tensor logits = RandInput({6}, 36);
  std::vector<float> targets = {1, 0, 1, 1, 0, 0};
  ExpectGradientsMatch([&] { return BceWithLogits(logits, targets); },
                       {logits});
}

TEST(GradCheck, CausalSelfAttention) {
  Tensor q = RandInput({4, 8}, 37, 0.5f);
  Tensor k = RandInput({4, 8}, 38, 0.5f);
  Tensor v = RandInput({4, 8}, 39, 0.5f);
  ExpectGradientsMatch(
      [&] {
        Tensor out = CausalSelfAttention(q, k, v, /*num_heads=*/2);
        return SumAll(Mul(out, out));
      },
      {q, k, v});
}

TEST(GradCheck, CausalSelfAttentionWithPrefix) {
  Tensor q = RandInput({3, 8}, 40, 0.5f);
  Tensor k = RandInput({5, 8}, 41, 0.5f);  // prefix_len 2 + 3 queries
  Tensor v = RandInput({5, 8}, 42, 0.5f);
  ExpectGradientsMatch(
      [&] {
        Tensor out =
            CausalSelfAttention(q, k, v, /*num_heads=*/2, /*prefix_len=*/2);
        return SumAll(Mul(out, out));
      },
      {q, k, v});
}

// Property sweep: attention gradcheck across head counts and prefix sizes.
class AttentionGradSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(AttentionGradSweep, Matches) {
  auto [heads, prefix] = GetParam();
  size_t dim = 8;
  Tensor q = RandInput({3, dim}, 50 + heads * 10 + prefix, 0.5f);
  Tensor k = RandInput({3 + prefix, dim}, 60 + heads * 10 + prefix, 0.5f);
  Tensor v = RandInput({3 + prefix, dim}, 70 + heads * 10 + prefix, 0.5f);
  ExpectGradientsMatch(
      [&, h = heads, p = prefix] {
        return SumAll(CausalSelfAttention(q, k, v, h, p));
      },
      {q, k, v});
}

INSTANTIATE_TEST_SUITE_P(
    HeadsAndPrefixes, AttentionGradSweep,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{4}),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{4})));

}  // namespace
}  // namespace infuserki::tensor
