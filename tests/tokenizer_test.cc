#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "tests/mcq_corpus.h"
#include "text/tokenizer.h"
#include "util/crc32.h"
#include "util/serialize.h"

namespace infuserki::text {
namespace {

TEST(BasicTokenize, SplitsWordsAndPunctuation) {
  EXPECT_EQ(BasicTokenize("What is X?"),
            (std::vector<std::string>{"what", "is", "x", "?"}));
  EXPECT_EQ(BasicTokenize("( a ) foo-bar"),
            (std::vector<std::string>{"(", "a", ")", "foo", "-", "bar"}));
  EXPECT_TRUE(BasicTokenize("   ").empty());
  EXPECT_EQ(BasicTokenize("type 5"),
            (std::vector<std::string>{"type", "5"}));
}

TEST(Tokenizer, SpecialsFixed) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.vocab_size(), 4u);
  EXPECT_EQ(tokenizer.IdToWord(kPadId), "<pad>");
  EXPECT_EQ(tokenizer.IdToWord(kBosId), "<bos>");
  EXPECT_EQ(tokenizer.IdToWord(kEosId), "<eos>");
  EXPECT_EQ(tokenizer.IdToWord(kUnkId), "<unk>");
}

TEST(Tokenizer, BuildAndEncode) {
  Tokenizer tokenizer =
      Tokenizer::Build({"the cat sat", "the dog ran"});
  EXPECT_TRUE(tokenizer.HasWord("cat"));
  EXPECT_TRUE(tokenizer.HasWord("dog"));
  std::vector<int> ids = tokenizer.Encode("the cat ran");
  EXPECT_EQ(ids.size(), 3u);
  for (int id : ids) EXPECT_NE(id, kUnkId);
  EXPECT_EQ(tokenizer.Encode("unicorn")[0], kUnkId);
}

TEST(Tokenizer, RoundTripDecode) {
  Tokenizer tokenizer = Tokenizer::Build({"alpha beta gamma"});
  std::vector<int> ids =
      tokenizer.EncodeWithSpecials("alpha gamma", /*add_eos=*/true);
  EXPECT_EQ(ids.front(), kBosId);
  EXPECT_EQ(ids.back(), kEosId);
  EXPECT_EQ(tokenizer.Decode(ids).value(), "alpha gamma");
}

TEST(Tokenizer, DecodeRejectsOutOfRangeIdsWithoutAborting) {
  Tokenizer tokenizer = Tokenizer::Build({"alpha beta gamma"});
  int bad = static_cast<int>(tokenizer.vocab_size());
  util::StatusOr<std::string> decoded =
      tokenizer.Decode({kBosId, 4, bad, kEosId});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kOutOfRange);
  // The error names the offending id and its position for request logs.
  EXPECT_NE(decoded.status().message().find(std::to_string(bad)),
            std::string::npos);

  util::StatusOr<std::string> negative = tokenizer.Decode({-7});
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), util::StatusCode::kOutOfRange);

  // Valid ids still decode on the same tokenizer afterwards.
  EXPECT_EQ(tokenizer.Decode({4}).value(), tokenizer.IdToWord(4));
}

TEST(Tokenizer, DecodeTextIsPinned) {
  Tokenizer tokenizer = Tokenizer::Build({"alpha beta gamma"});
  ASSERT_EQ(tokenizer.WordId("alpha"), 4);
  ASSERT_EQ(tokenizer.WordId("gamma"), 6);
  EXPECT_EQ(tokenizer.Decode({}).value(), "");
  EXPECT_EQ(tokenizer.Decode({kPadId, kBosId, kEosId}).value(), "");
  EXPECT_EQ(tokenizer.Decode({4}).value(), "alpha");
  // <pad>/<bos>/<eos> are skipped wherever they sit; <unk> is a word.
  std::vector<int> ids = {kBosId, 4, kPadId, 6, kUnkId, 5, 5, kEosId};
  EXPECT_EQ(tokenizer.Decode(ids).value(), "alpha gamma <unk> beta beta");
  EXPECT_EQ(tokenizer.Decode({kEosId, kUnkId}).value(), "<unk>");

  util::StatusOr<std::string> bad = tokenizer.Decode({kBosId, 4, 7, kEosId});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(),
            "token id 7 at position 2 outside vocabulary of 7");
}

TEST(Tokenizer, IdToWordIsTotal) {
  Tokenizer tokenizer = Tokenizer::Build({"alpha beta"});
  EXPECT_EQ(tokenizer.IdToWord(-1), "<unk>");
  EXPECT_EQ(tokenizer.IdToWord(static_cast<int>(tokenizer.vocab_size())),
            "<unk>");
}

TEST(Tokenizer, MinCountFilters) {
  Tokenizer tokenizer =
      Tokenizer::Build({"rare common common"}, /*min_count=*/2);
  EXPECT_FALSE(tokenizer.HasWord("rare"));
  EXPECT_TRUE(tokenizer.HasWord("common"));
}

TEST(Tokenizer, DeterministicIds) {
  Tokenizer a = Tokenizer::Build({"zebra apple", "mango"});
  Tokenizer b = Tokenizer::Build({"zebra apple", "mango"});
  EXPECT_EQ(a.WordId("zebra"), b.WordId("zebra"));
  EXPECT_EQ(a.WordId("apple"), b.WordId("apple"));
}

// Golden digests of the vocabulary serve_chat builds: CRC-32 over the word
// list in id order (each word followed by a newline) of Build over the MCQ
// prompts at 2400 triplets. Pinned from the std::map-ordered build, so any
// change to a word, an id or the min_count cut moves them.
TEST(Tokenizer, McqCorpusVocabularyIsPinned) {
  struct Golden {
    uint64_t seed;
    int min_count;
    size_t vocab_size;
    uint32_t digest;
  };
  const Golden kGolden[] = {
      {1, 1, 1769, 0x882e9f82u},
      {2, 1, 1742, 0xd13aa86fu},
      {3, 1, 1748, 0x9966eacau},
      {1, 3, 1179, 0xcd839380u},
  };
  for (const Golden& golden : kGolden) {
    std::vector<std::string> corpus = testing::McqCorpus(2400, golden.seed);
    Tokenizer tokenizer = Tokenizer::Build(corpus, golden.min_count);
    uint32_t crc = 0;
    for (size_t id = 0; id < tokenizer.vocab_size(); ++id) {
      crc = util::Crc32(tokenizer.IdToWord(static_cast<int>(id)) + "\n", crc);
    }
    EXPECT_EQ(tokenizer.vocab_size(), golden.vocab_size)
        << "seed " << golden.seed << " min_count " << golden.min_count;
    EXPECT_EQ(crc, golden.digest)
        << "seed " << golden.seed << " min_count " << golden.min_count
        << ": 0x" << std::hex << crc;
  }
}

TEST(Tokenizer, SerializeRoundTrip) {
  Tokenizer tokenizer = Tokenizer::Build({"alpha beta gamma delta"});
  std::string path = ::testing::TempDir() + "/tok_roundtrip.bin";
  {
    util::BinaryWriter writer(path);
    tokenizer.Serialize(&writer);
    ASSERT_TRUE(writer.Finish().ok());
  }
  util::BinaryReader reader(path);
  auto restored = Tokenizer::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->vocab_size(), tokenizer.vocab_size());
  EXPECT_EQ(restored->WordId("gamma"), tokenizer.WordId("gamma"));
  std::remove(path.c_str());
}

TEST(Tokenizer, DeserializeCorruptFails) {
  std::string path = ::testing::TempDir() + "/tok_corrupt.bin";
  {
    util::BinaryWriter writer(path);
    writer.WriteU64(1234567);  // absurd vocab count, then truncated
    ASSERT_TRUE(writer.Finish().ok());
  }
  util::BinaryReader reader(path);
  auto restored = Tokenizer::Deserialize(&reader);
  EXPECT_FALSE(restored.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace infuserki::text
