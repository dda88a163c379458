#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/flags.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace infuserki::util {
namespace {

TEST(Split, Basic) {
  EXPECT_EQ(Split("a b c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("  a   b "), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(Split("").empty());
  EXPECT_EQ(Split("a,b;c", ",;"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ToLower, Basic) {
  EXPECT_EQ(ToLower("AbC 12x"), "abc 12x");
}

TEST(Trim, Basic) {
  EXPECT_EQ(Trim("  x y \n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(ReplaceAll, Basic) {
  EXPECT_EQ(ReplaceAll("a[S]b[S]", "[S]", "x"), "axbx");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(EditDistance, KnownValues) {
  EXPECT_EQ(EditDistanceFrom("").To(""), 0u);
  EXPECT_EQ(EditDistanceFrom("abc").To("abc"), 0u);
  EXPECT_EQ(EditDistanceFrom("kitten").To("sitting"), 3u);
  EXPECT_EQ(EditDistanceFrom("abc").To(""), 3u);
  EXPECT_EQ(EditDistanceFrom("").To("xyz"), 3u);
  EXPECT_EQ(EditDistanceFrom("flaw").To("lawn"), 2u);
}

TEST(EditDistance, Symmetry) {
  EXPECT_EQ(EditDistanceFrom("cardio").To("cardigan"),
            EditDistanceFrom("cardigan").To("cardio"));
}

// The two-row dynamic program the edit distance used before the bit-vector
// kernel, kept as the oracle.
size_t ReferenceEditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
  std::vector<size_t> prev(b.size() + 1);
  std::vector<size_t> curr(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t substitute = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitute});
    }
    std::swap(prev, curr);
  }
  return prev[b.size()];
}

size_t RandomLength(Rng* rng) {
  return static_cast<size_t>(rng->UniformInt(0, 130));
}

// Bytes from a window of `alphabet` consecutive values (mod 256) at a random
// offset, so NUL, 0x7f/0x80 and 0xff all turn up, and small alphabets give
// many matches.
std::string RandomBytes(Rng* rng, size_t length, int alphabet) {
  int64_t offset = rng->UniformInt(0, 255);
  std::string out(length, '\0');
  for (char& c : out) {
    int64_t value = (offset + rng->UniformInt(0, alphabet - 1)) % 256;
    c = static_cast<char>(static_cast<unsigned char>(value));
  }
  return out;
}

// `text` after a few random substitutions, insertions and deletions, so
// distances are small and the kernel's -1 deltas are exercised.
std::string Mutate(Rng* rng, std::string text, int alphabet) {
  int64_t edits = rng->UniformInt(0, 6);
  for (int64_t e = 0; e < edits; ++e) {
    char byte = RandomBytes(rng, 1, alphabet)[0];
    int64_t size = static_cast<int64_t>(text.size());
    int64_t kind = text.empty() ? 0 : rng->UniformInt(0, 2);
    if (kind == 0) {
      text.insert(static_cast<size_t>(rng->UniformInt(0, size)), 1, byte);
    } else if (kind == 1) {
      text[static_cast<size_t>(rng->UniformInt(0, size - 1))] = byte;
    } else {
      text.erase(static_cast<size_t>(rng->UniformInt(0, size - 1)), 1);
    }
  }
  return text;
}

void ExpectMatchesReference(const std::string& a, const std::string& b) {
  size_t want = ReferenceEditDistance(a, b);
  ASSERT_EQ(EditDistanceFrom(a).To(b), want) << a.size() << " x " << b.size();
  ASSERT_EQ(EditDistanceFrom(b).To(a), want) << b.size() << " x " << a.size();
}

TEST(EditDistance, MatchesDynamicProgramOnRandomBytes) {
  Rng rng(2025);
  const int kAlphabets[] = {1, 2, 4, 26, 256};
  // Every pairing of the word-boundary lengths, then random lengths.
  const size_t kEdges[] = {0, 1, 2, 63, 64, 65, 127, 128, 130};
  for (size_t la : kEdges) {
    for (size_t lb : kEdges) {
      for (int alphabet : kAlphabets) {
        ExpectMatchesReference(RandomBytes(&rng, la, alphabet),
                               RandomBytes(&rng, lb, alphabet));
      }
    }
  }
  for (int trial = 0; trial < 3000; ++trial) {
    int alphabet = kAlphabets[rng.UniformInt(0, 4)];
    std::string a = RandomBytes(&rng, RandomLength(&rng), alphabet);
    std::string b = rng.Bernoulli(0.5)
                        ? Mutate(&rng, a, alphabet)
                        : RandomBytes(&rng, RandomLength(&rng), alphabet);
    ExpectMatchesReference(a, b);
  }
}

TEST(EditDistance, HighAndNulBytes) {
  const std::string nul_led("\0ab\xff\x80", 5);
  EXPECT_EQ(EditDistanceFrom(nul_led).To(std::string("ab\xff\x80", 4)), 1u);
  EXPECT_EQ(EditDistanceFrom(nul_led).To(std::string("\0ab\x7f\x80", 5)),
            1u);
  EXPECT_EQ(
      EditDistanceFrom(std::string(64, '\xff')).To(std::string(65, '\xff')),
      1u);
  EXPECT_EQ(EditDistanceFrom(std::string(64, '\0')).To(""), 64u);
}

TEST(EditDistanceFrom, OnePatternManyTexts) {
  Rng rng(2026);
  for (size_t length : {0, 1, 39, 63, 64, 65, 100}) {
    std::string pattern = RandomBytes(&rng, length, 4);
    EditDistanceFrom from(pattern);
    for (int text = 0; text < 50; ++text) {
      std::string other = text % 2 == 0
                              ? Mutate(&rng, pattern, 4)
                              : RandomBytes(&rng, RandomLength(&rng), 4);
      ASSERT_EQ(from.To(other), ReferenceEditDistance(pattern, other))
          << "pattern " << length << " text " << other.size();
    }
  }
}

TEST(FormatFloat, Basic) {
  EXPECT_EQ(FormatFloat(0.987, 2), "0.99");
  EXPECT_EQ(FormatFloat(1.0, 2), "1.00");
  EXPECT_EQ(FormatFloat(-0.5, 1), "-0.5");
}

TEST(Status, OkAndErrors) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status bad = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.ToString(), "INVALID_ARGUMENT: bad shape");
}

TEST(StatusOr, ValueAndError) {
  StatusOr<int> value(42);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  StatusOr<int> error(Status::NotFound("nope"));
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(2);
  std::vector<size_t> sample = rng.SampleIndices(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(std::unique(sample.begin(), sample.end()), sample.end());
  for (size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleAll) {
  Rng rng(3);
  std::vector<size_t> sample = rng.SampleIndices(5, 5);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(4);
  std::vector<int> v = {1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Flags, Parsing) {
  const char* argv[] = {"prog", "--alpha=1.5", "--name=test", "--on",
                        "positional", "--count=42"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.GetString("name", ""), "test");
  EXPECT_TRUE(flags.GetBool("on", false));
  EXPECT_EQ(flags.GetInt("count", 0), 42);
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_FALSE(flags.Has("positional"));
}

}  // namespace
}  // namespace infuserki::util
