#include <gtest/gtest.h>

#include "eval/downstream.h"
#include "kg/synth.h"

namespace infuserki::eval {
namespace {

TEST(TwoHop, ItemsAreValidChains) {
  // UMLS entities appear as both heads and tails, so 2-hop chains exist.
  kg::KnowledgeGraph kg = kg::SyntheticUmls(
      {.num_triplets = 200, .seed = 71, .chain_fraction = 0.3});
  util::Rng rng(72);
  std::vector<TwoHopItem> items =
      Build2HopTask(kg, /*max_items=*/20, /*max_candidates=*/5, &rng);
  ASSERT_FALSE(items.empty());
  for (const TwoHopItem& item : items) {
    const kg::Triplet& hop1 = kg.triplets()[item.first_triplet];
    const kg::Triplet& hop2 = kg.triplets()[item.second_triplet];
    EXPECT_EQ(hop1.tail, hop2.head) << "not a chain";
    EXPECT_NE(hop1.relation, hop2.relation);
    // The gold candidate is the final answer.
    EXPECT_EQ(item.candidates[static_cast<size_t>(item.gold)],
              kg.entity(hop2.tail).name);
    // The prompt mentions the chain start but NOT the bridge entity.
    EXPECT_NE(item.prompt.find(kg.entity(hop1.head).name),
              std::string::npos);
    EXPECT_EQ(item.prompt.find(kg.entity(hop1.tail).name),
              std::string::npos)
        << "bridge entity leaked into prompt: " << item.prompt;
  }
}

TEST(TwoHop, EvaluatorRuns) {
  kg::KnowledgeGraph kg = kg::SyntheticUmls(
      {.num_triplets = 150, .seed = 73, .chain_fraction = 0.3});
  util::Rng rng(74);
  std::vector<TwoHopItem> items = Build2HopTask(kg, 6, 4, &rng);
  ASSERT_FALSE(items.empty());
  std::vector<std::string> corpus;
  for (const TwoHopItem& item : items) {
    corpus.push_back(item.prompt);
    for (const std::string& candidate : item.candidates) {
      corpus.push_back(candidate);
    }
  }
  text::Tokenizer tokenizer = text::Tokenizer::Build(corpus);
  model::TransformerConfig config;
  config.vocab_size = tokenizer.vocab_size();
  config.dim = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  config.max_seq_len = 128;
  util::Rng model_rng(75);
  model::TransformerLM lm(config, &model_rng);
  double accuracy = Evaluate2HopTask(lm, tokenizer, items);
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 1.0);
}

TEST(TwoHop, RespectsMaxItems) {
  kg::KnowledgeGraph kg = kg::SyntheticUmls(
      {.num_triplets = 200, .seed = 76, .chain_fraction = 0.3});
  util::Rng rng(77);
  std::vector<TwoHopItem> items = Build2HopTask(kg, 3, 4, &rng);
  EXPECT_LE(items.size(), 3u);
}

}  // namespace
}  // namespace infuserki::eval
