#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "kg/dataset.h"
#include "kg/graph.h"
#include "kg/mcq.h"
#include "kg/synth.h"
#include "kg/templates.h"
#include "tests/mcq_corpus.h"
#include "util/crc32.h"

namespace infuserki::kg {
namespace {

KnowledgeGraph TinyGraph() {
  KnowledgeGraph kg;
  int rel = kg.AddRelation("treats", "treatment target");
  int a = kg.AddEntity("aspirin");
  int h = kg.AddEntity("headache");
  int f = kg.AddEntity("fever");
  int c = kg.AddEntity("cold");
  EXPECT_TRUE(kg.AddTriplet(a, rel, h).ok());
  int b = kg.AddEntity("ibuprofen");
  EXPECT_TRUE(kg.AddTriplet(b, rel, f).ok());
  int d = kg.AddEntity("paracetamol");
  EXPECT_TRUE(kg.AddTriplet(d, rel, c).ok());
  return kg;
}

TEST(KnowledgeGraph, AddAndLookup) {
  KnowledgeGraph kg = TinyGraph();
  EXPECT_EQ(kg.num_triplets(), 3u);
  EXPECT_EQ(kg.num_relations(), 1u);
  const Triplet& first = kg.triplets()[0];
  EXPECT_EQ(kg.entity(first.head).name, "aspirin");
  EXPECT_EQ(kg.relation(first.relation).name, "treats");
  EXPECT_EQ(kg.entity(first.tail).name, "headache");
}

TEST(KnowledgeGraph, AddEntityIdempotent) {
  KnowledgeGraph kg;
  EXPECT_EQ(kg.AddEntity("x"), kg.AddEntity("x"));
  EXPECT_EQ(kg.num_entities(), 1u);
}

TEST(KnowledgeGraph, DuplicateHeadRelationRejected) {
  KnowledgeGraph kg;
  int rel = kg.AddRelation("r", "r");
  int a = kg.AddEntity("a");
  int b = kg.AddEntity("b");
  int c = kg.AddEntity("c");
  EXPECT_TRUE(kg.AddTriplet(a, rel, b).ok());
  util::Status dup = kg.AddTriplet(a, rel, c);
  EXPECT_EQ(dup.code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(kg.num_triplets(), 1u);
}

TEST(KnowledgeGraph, BoundsChecked) {
  KnowledgeGraph kg;
  int rel = kg.AddRelation("r", "r");
  int a = kg.AddEntity("a");
  EXPECT_EQ(kg.AddTriplet(a, rel, 99).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(kg.AddTriplet(a, 7, a).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(KnowledgeGraph, TailPool) {
  KnowledgeGraph kg = TinyGraph();
  int treats = kg.AddRelation("treats", "treatment target");
  const std::vector<int>& pool = kg.TailPool(treats);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(Templates, FiveDistinctQuestionForms) {
  KnowledgeGraph kg = TinyGraph();
  TemplateEngine engine;
  const Triplet& triplet = kg.triplets()[0];
  std::set<std::string> questions;
  for (int t = 1; t <= kNumTemplates; ++t) {
    std::string q = engine.Question(kg, triplet, t);
    EXPECT_NE(q.find("aspirin"), std::string::npos) << q;
    questions.insert(q);
  }
  EXPECT_EQ(questions.size(), static_cast<size_t>(kNumTemplates));
}

TEST(Templates, StatementContainsBothEntities) {
  KnowledgeGraph kg = TinyGraph();
  TemplateEngine engine;
  std::string statement = engine.Statement(kg, kg.triplets()[0]);
  EXPECT_NE(statement.find("aspirin"), std::string::npos);
  EXPECT_NE(statement.find("headache"), std::string::npos);
}

TEST(Templates, YesNoOverride) {
  KnowledgeGraph kg = TinyGraph();
  TemplateEngine engine;
  int fever = kg.AddEntity("fever");
  std::string fake = engine.YesNoQuestion(kg, kg.triplets()[0], fever);
  EXPECT_NE(fake.find("fever"), std::string::npos);
  EXPECT_EQ(fake.find("headache"), std::string::npos);
}

TEST(Mcq, GoldAmongOptionsAndUnique) {
  util::Rng rng(5);
  KnowledgeGraph kg = SyntheticUmls({.num_triplets = 60, .seed = 2});
  TemplateEngine engine;
  McqBuilder builder(&kg, &engine);
  for (size_t i = 0; i < 20; ++i) {
    Mcq mcq = builder.Build(i, 1, &rng);
    const Triplet& triplet = kg.triplets()[i];
    EXPECT_EQ(mcq.options[static_cast<size_t>(mcq.correct)],
              kg.entity(triplet.tail).name);
    std::set<std::string> distinct(mcq.options.begin(), mcq.options.end());
    EXPECT_EQ(distinct.size(), 4u) << "duplicate options in MCQ " << i;
  }
}

TEST(Mcq, PromptFormats) {
  util::Rng rng(6);
  KnowledgeGraph kg = TinyGraph();
  TemplateEngine engine;
  McqBuilder builder(&kg, &engine);
  Mcq mcq = builder.Build(0, 1, &rng);
  std::string with_options = FormatMcqPrompt(mcq);
  EXPECT_NE(with_options.find("( a )"), std::string::npos);
  EXPECT_NE(with_options.find("answer :"), std::string::npos);
  std::string without = FormatQuestionPrompt(mcq);
  EXPECT_EQ(without.find("( a )"), std::string::npos);
  EXPECT_NE(without.find("question :"), std::string::npos);
  EXPECT_EQ(McqGoldResponse(mcq),
            mcq.options[static_cast<size_t>(mcq.correct)]);
}

// Golden digests of the prompts the distractor rule builds at serve_chat's
// scale (2400 triplets): CRC-32 over every FormatMcqPrompt of BuildAll, each
// followed by a newline. Pinned from the two-row DP edit distance, so any
// change to a distance, a tie-break or an RNG draw moves them.
TEST(Mcq, BuildAllPromptsArePinned) {
  const uint32_t kDigests[] = {0x0ec5e1f7u, 0x0288c88cu, 0x24c43d27u};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    uint32_t crc = 0;
    for (const std::string& prompt : testing::McqCorpus(2400, seed)) {
      crc = util::Crc32(prompt + "\n", crc);
    }
    EXPECT_EQ(crc, kDigests[seed - 1])
        << "seed " << seed << ": 0x" << std::hex << crc;
  }
}

TEST(Synth, UmlsSizes) {
  KnowledgeGraph kg = SyntheticUmls({.num_triplets = 120, .seed = 3});
  EXPECT_EQ(kg.num_triplets(), 120u);
  EXPECT_EQ(kg.num_relations(), 24u);
  EXPECT_GT(kg.num_entities(), 100u);
}

TEST(Synth, UmlsDeterministic) {
  KnowledgeGraph a = SyntheticUmls({.num_triplets = 50, .seed = 9});
  KnowledgeGraph b = SyntheticUmls({.num_triplets = 50, .seed = 9});
  ASSERT_EQ(a.num_triplets(), b.num_triplets());
  for (size_t i = 0; i < a.num_triplets(); ++i) {
    EXPECT_TRUE(a.triplets()[i] == b.triplets()[i]);
  }
}

TEST(Synth, MetaQaNineRelations) {
  KnowledgeGraph kg = SyntheticMetaQa({.num_triplets = 90, .seed = 4});
  EXPECT_EQ(kg.num_triplets(), 90u);
  EXPECT_EQ(kg.num_relations(), 9u);
  std::set<std::string> names;
  for (size_t r = 0; r < kg.num_relations(); ++r) {
    names.insert(kg.relation(static_cast<int>(r)).name);
  }
  EXPECT_EQ(names.count("directed_by"), 1u);
  EXPECT_EQ(names.count("has_imdb_votes"), 1u);
}

TEST(Synth, UniqueHeadRelationPairs) {
  KnowledgeGraph kg = SyntheticUmls({.num_triplets = 100, .seed = 5});
  std::set<std::pair<int, int>> seen;
  for (const Triplet& triplet : kg.triplets()) {
    EXPECT_TRUE(seen.insert({triplet.head, triplet.relation}).second);
  }
}

TEST(Dataset, QaSamplesWellFormed) {
  KnowledgeGraph kg = SyntheticUmls({.num_triplets = 40, .seed = 6});
  TemplateEngine engine;
  DatasetBuilder builder(&kg, &engine);
  util::Rng rng(7);
  std::vector<QaSample> samples = builder.BuildQa({0, 1, 2}, 2, &rng);
  ASSERT_EQ(samples.size(), 3u);
  for (const QaSample& sample : samples) {
    EXPECT_EQ(sample.template_id, 2);
    EXPECT_NE(sample.prompt.find("answer :"), std::string::npos);
    EXPECT_EQ(sample.response, McqGoldResponse(sample.mcq));
  }
}

TEST(Dataset, YesNoBalancedish) {
  KnowledgeGraph kg = SyntheticUmls({.num_triplets = 60, .seed = 8});
  TemplateEngine engine;
  DatasetBuilder builder(&kg, &engine);
  util::Rng rng(9);
  std::vector<size_t> indices(60);
  for (size_t i = 0; i < 60; ++i) indices[i] = i;
  std::vector<YesNoSample> samples = builder.BuildYesNo(indices, &rng);
  size_t positives = 0;
  for (const YesNoSample& sample : samples) {
    if (sample.answer) ++positives;
  }
  EXPECT_GT(positives, 15u);
  EXPECT_LT(positives, 45u);
}

TEST(Dataset, FillerSentencesNonEmpty) {
  util::Rng rng(10);
  std::vector<std::string> filler = FillerSentences(5, &rng);
  EXPECT_EQ(filler.size(), 5u);
  for (const std::string& sentence : filler) {
    EXPECT_FALSE(sentence.empty());
  }
}

}  // namespace
}  // namespace infuserki::kg
