#include <gtest/gtest.h>

#include "model/generation.h"
#include "model/pretrain.h"
#include "model/trainer.h"

namespace infuserki::model {
namespace {

// A model trained to echo a fixed response lets us test the generation and
// extraction paths deterministically.
class TrainedLmFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PretrainSpec spec;
    spec.arch.dim = 24;
    spec.arch.num_layers = 2;
    spec.arch.num_heads = 2;
    spec.arch.ffn_hidden = 48;
    spec.instruction_docs = {
        {"question : color of sky ? answer :", "blue ink"},
        {"question : color of grass ? answer :", "green moss"},
    };
    spec.extra_vocab_docs = {"( a ) ( b ) red dust"};
    spec.steps = 250;
    spec.lr = 1e-2f;
    spec.cache_dir = "";
    base_ = new PretrainedModel(PretrainOrLoad(spec));
  }
  static void TearDownTestSuite() { delete base_; }

  static PretrainedModel* base_;
};

PretrainedModel* TrainedLmFixture::base_ = nullptr;

TEST_F(TrainedLmFixture, GreedyDecodesTrainedResponse) {
  std::vector<int> prompt = base_->tokenizer.EncodeWithSpecials(
      "question : color of sky ? answer :", false);
  std::vector<int> generated = GreedyDecode(*base_->lm, prompt, 6);
  std::string text = base_->tokenizer.Decode(generated).value();
  EXPECT_EQ(text, "blue ink");
}

TEST_F(TrainedLmFixture, ScoreOptionsPrefersTrainedAnswer) {
  OptionScores scores = ScoreOptions(
      *base_->lm, base_->tokenizer, "question : color of sky ? answer :",
      {"green moss", "blue ink", "red dust"});
  EXPECT_EQ(scores.best, 1);
  EXPECT_GT(scores.probabilities[1], 0.5);
}

TEST_F(TrainedLmFixture, ExtractChosenOptionByText) {
  int chosen = ExtractChosenOption(
      *base_->lm, base_->tokenizer, "question : color of sky ? answer :",
      {"green moss", "blue ink", "red dust"});
  EXPECT_EQ(chosen, 1);
}

TEST_F(TrainedLmFixture, ExtractChosenOptionIsCaseInsensitive) {
  // Option texts arrive in KG surface casing while decoded responses are
  // all lowercase; containment must compare case-normalized on both sides.
  int chosen = ExtractChosenOption(
      *base_->lm, base_->tokenizer, "question : color of sky ? answer :",
      {"Green Moss", "Blue Ink", "Red Dust"});
  EXPECT_EQ(chosen, 1);
}

TEST_F(TrainedLmFixture, ExtractReturnsMinusOneWhenNothingMatches) {
  int chosen = ExtractChosenOption(
      *base_->lm, base_->tokenizer, "question : color of sky ? answer :",
      {"purple haze", "orange peel"});
  EXPECT_EQ(chosen, -1);
}

TEST_F(TrainedLmFixture, SequenceLogProbOrdersContinuations) {
  std::vector<int> prompt = base_->tokenizer.EncodeWithSpecials(
      "question : color of grass ? answer :", false);
  double good = SequenceLogProb(
      *base_->lm, prompt, base_->tokenizer.Encode("green moss"));
  double bad = SequenceLogProb(*base_->lm, prompt,
                               base_->tokenizer.Encode("blue ink"));
  EXPECT_GT(good, bad);
}

}  // namespace
}  // namespace infuserki::model
