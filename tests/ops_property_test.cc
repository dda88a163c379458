// Property-style sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P) over the op
// library and data pipeline: invariants that must hold for every shape,
// seed, or configuration in the sweep.

#include <gtest/gtest.h>

#include <cmath>

#include "kg/mcq.h"
#include "kg/synth.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace infuserki {
namespace {

using tensor::Shape;
using tensor::Tensor;

// --- Softmax invariants across shapes and scales ---------------------------

class SoftmaxSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, float>> {};

TEST_P(SoftmaxSweep, RowsSumToOneAndOrderPreserved) {
  auto [rows, cols, scale] = GetParam();
  util::Rng rng(rows * 100 + cols);
  Tensor x = Tensor::Randn({rows, cols}, &rng, scale);
  Tensor y = tensor::Softmax(x);
  for (size_t r = 0; r < rows; ++r) {
    float sum = 0.0f;
    for (size_t c = 0; c < cols; ++c) {
      float v = y.at(r, c);
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
    // Monotonicity: argmax of input == argmax of softmax.
    size_t arg_in = 0, arg_out = 0;
    for (size_t c = 1; c < cols; ++c) {
      if (x.at(r, c) > x.at(r, arg_in)) arg_in = c;
      if (y.at(r, c) > y.at(r, arg_out)) arg_out = c;
    }
    EXPECT_EQ(arg_in, arg_out);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndScales, SoftmaxSweep,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{5}),
                       ::testing::Values(size_t{2}, size_t{17}, size_t{64}),
                       ::testing::Values(0.5f, 5.0f, 50.0f)));

// --- Norm layers preserve shape and are scale-equivariant -------------------

class NormSweep : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
};

TEST_P(NormSweep, RmsNormScaleInvariance) {
  auto [rows, cols] = GetParam();
  util::Rng rng(rows * 31 + cols);
  Tensor x = Tensor::Randn({rows, cols}, &rng);
  Tensor w = Tensor::Full({cols}, 1.0f);
  Tensor y1 = tensor::RmsNorm(x, w);
  // RMSNorm(k * x) == RMSNorm(x) for k > 0 (up to eps effects).
  Tensor y2 = tensor::RmsNorm(tensor::MulScalar(x, 7.0f), w);
  for (size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y1.data()[i], y2.data()[i], 2e-2f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NormSweep,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Values(size_t{4}, size_t{33})));

// --- Matmul algebraic properties across shapes ------------------------------

class MatmulSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(MatmulSweep, DistributesOverAddition) {
  auto [m, k, n] = GetParam();
  util::Rng rng(m * 7 + k * 3 + n);
  Tensor a = Tensor::Randn({m, k}, &rng);
  Tensor b1 = Tensor::Randn({k, n}, &rng);
  Tensor b2 = Tensor::Randn({k, n}, &rng);
  Tensor lhs = tensor::Matmul(a, tensor::Add(b1, b2));
  Tensor rhs = tensor::Add(tensor::Matmul(a, b1), tensor::Matmul(a, b2));
  for (size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_NEAR(lhs.data()[i], rhs.data()[i],
                1e-3f * (1.0f + std::fabs(rhs.data()[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulSweep,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{5}),
                       ::testing::Values(size_t{3}, size_t{16}),
                       ::testing::Values(size_t{2}, size_t{9})));

// --- MCQ construction invariants across KGs, templates, and seeds ----------

class McqSweep : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
};

TEST_P(McqSweep, OptionsDistinctGoldPresentCorrectIndex) {
  auto [template_id, seed] = GetParam();
  kg::KnowledgeGraph kg =
      kg::SyntheticUmls({.num_triplets = 40, .seed = seed});
  kg::TemplateEngine templates;
  kg::McqBuilder builder(&kg, &templates);
  util::Rng rng(seed + 100);
  for (size_t index = 0; index < 12; ++index) {
    kg::Mcq mcq = builder.Build(index, template_id, &rng);
    EXPECT_EQ(mcq.template_id, template_id);
    const kg::Triplet& triplet = kg.triplets()[index];
    // Gold option is exactly the tail entity.
    EXPECT_EQ(mcq.options[static_cast<size_t>(mcq.correct)],
              kg.entity(triplet.tail).name);
    // No duplicates, and no option equals the head entity's own name
    // accidentally matching the answer slot semantics.
    for (size_t i = 0; i < 4; ++i) {
      for (size_t j = i + 1; j < 4; ++j) {
        EXPECT_NE(mcq.options[i], mcq.options[j]);
      }
    }
    // Question actually mentions the head entity.
    EXPECT_NE(mcq.question.find(kg.entity(triplet.head).name),
              std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TemplatesAndSeeds, McqSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(uint64_t{3}, uint64_t{77})));

// --- Tokenizer round-trip across generated KG text --------------------------

class TokenizerSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerSweep, EncodeDecodeRoundTripOnKgText) {
  kg::KnowledgeGraph kg =
      kg::SyntheticUmls({.num_triplets = 30, .seed = GetParam()});
  kg::TemplateEngine templates;
  std::vector<std::string> corpus;
  for (const kg::Triplet& triplet : kg.triplets()) {
    corpus.push_back(templates.Statement(kg, triplet));
    corpus.push_back(templates.Question(kg, triplet, 1));
  }
  text::Tokenizer tokenizer = text::Tokenizer::Build(corpus);
  for (const std::string& doc : corpus) {
    std::vector<int> ids = tokenizer.Encode(doc);
    // No unknown tokens on the build corpus.
    for (int id : ids) EXPECT_NE(id, text::kUnkId) << doc;
    // Round trip is the normalized (lower-case, space-separated) form.
    std::string decoded = tokenizer.Decode(ids).value();
    std::vector<int> again = tokenizer.Encode(decoded);
    EXPECT_EQ(ids, again) << doc;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerSweep,
                         ::testing::Values(uint64_t{1}, uint64_t{13},
                                           uint64_t{99}));

// --- Quantization error bound across block sizes ----------------------------

class QuantSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(QuantSweep, BlockwiseErrorBounded) {
  size_t block = GetParam();
  util::Rng rng(block);
  tensor::Linear linear(24, 24, &rng);
  std::vector<float> original = linear.weight().vec();
  linear.QuantizeWeights(block);
  // Per-block bound: |dq - w| <= absmax(block)/14.
  const std::vector<float>& quantized = linear.weight().vec();
  for (size_t begin = 0; begin < original.size(); begin += block) {
    size_t end = std::min(begin + block, original.size());
    float absmax = 0.0f;
    for (size_t i = begin; i < end; ++i) {
      absmax = std::max(absmax, std::fabs(original[i]));
    }
    for (size_t i = begin; i < end; ++i) {
      EXPECT_LE(std::fabs(quantized[i] - original[i]),
                absmax / 14.0f + 1e-6f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, QuantSweep,
                         ::testing::Values(size_t{8}, size_t{32},
                                           size_t{1000}));

}  // namespace
}  // namespace infuserki
