#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/adapter_stack.h"
#include "model/batched_session.h"
#include "model/generation.h"
#include "model/transformer.h"
#include "text/tokenizer.h"
#include "util/rng.h"

// Bit-exactness suite for the KV-cache inference engine (DESIGN.md §7),
// driven as single-sequence decode runs it — a one-slot
// BatchedDecodeSession: every cached forward must reproduce the
// full-sequence forward byte-for-byte, across chunkings, prompt lengths,
// hooks, and prefix tuning. All comparisons are exact float equality on
// purpose — "close enough" would hide order-of-operations drift between
// the two paths.

namespace infuserki::model {
namespace {

using tensor::NoGradGuard;
using tensor::Tensor;

TransformerConfig SmallConfig() {
  TransformerConfig config;
  config.vocab_size = 40;
  config.dim = 16;
  config.num_layers = 3;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  config.max_seq_len = 24;
  return config;
}

std::vector<int> RandomTokens(size_t count, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> tokens(count);
  for (int& t : tokens) {
    // Avoid special ids so Decode/EOS handling never truncates.
    t = static_cast<int>(rng.UniformInt(4, 39));
  }
  return tokens;
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.dim(0), b.dim(0));
  ASSERT_EQ(a.dim(1), b.dim(1));
  size_t count = a.dim(0) * a.dim(1);
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

/// Rows [row_begin, row_begin + rows) of `full` vs all rows of `part`.
void ExpectRowsBitIdentical(const Tensor& full, size_t row_begin,
                            const Tensor& part) {
  size_t cols = full.dim(1);
  ASSERT_EQ(cols, part.dim(1));
  ASSERT_LE(row_begin + part.dim(0), full.dim(0));
  for (size_t r = 0; r < part.dim(0); ++r) {
    const float* a = full.data() + (row_begin + r) * cols;
    const float* b = part.data() + r * cols;
    for (size_t c = 0; c < cols; ++c) {
      ASSERT_EQ(a[c], b[c]) << "row " << row_begin + r << " col " << c;
    }
  }
}

/// The pre-engine greedy loop: full forward over the whole sequence each
/// step. The reference implementation cached decode must match exactly.
std::vector<int> GreedyFullRecompute(const TransformerLM& lm,
                                     const std::vector<int>& prompt,
                                     size_t max_new_tokens,
                                     const ForwardOptions& options = {}) {
  NoGradGuard no_grad;
  std::vector<int> sequence = prompt;
  std::vector<int> generated;
  for (size_t step = 0; step < max_new_tokens; ++step) {
    if (sequence.size() >= lm.config().max_seq_len) break;
    Tensor logits = lm.Logits(sequence, options);
    size_t vocab = logits.dim(1);
    const float* row = logits.data() + (logits.dim(0) - 1) * vocab;
    int best = 0;
    for (size_t v = 1; v < vocab; ++v) {
      if (row[v] > row[best]) best = static_cast<int>(v);
    }
    if (best == text::kEosId) break;
    generated.push_back(best);
    sequence.push_back(best);
  }
  return generated;
}

/// The pre-engine scoring arithmetic: one full forward, double-precision
/// log-softmax per continuation position.
double SequenceLogProbReference(const TransformerLM& lm,
                                const std::vector<int>& prompt,
                                const std::vector<int>& continuation,
                                const ForwardOptions& options = {}) {
  NoGradGuard no_grad;
  std::vector<int> full = prompt;
  full.insert(full.end(), continuation.begin(), continuation.end());
  std::vector<int> inputs(full.begin(), full.end() - 1);
  Tensor logits = lm.Logits(inputs, options);
  size_t vocab = logits.dim(1);
  double total = 0.0;
  for (size_t i = 0; i < continuation.size(); ++i) {
    const float* row = logits.data() + (prompt.size() - 1 + i) * vocab;
    float mx = row[0];
    for (size_t v = 1; v < vocab; ++v) mx = std::max(mx, row[v]);
    double sum = 0.0;
    for (size_t v = 0; v < vocab; ++v) {
      sum += std::exp(static_cast<double>(row[v]) - mx);
    }
    total +=
        static_cast<double>(row[continuation[i]]) - mx - std::log(sum);
  }
  return total;
}

/// One-slot session: the engine's single-sequence configuration.
class OneSlot {
 public:
  explicit OneSlot(const TransformerLM& lm, const ForwardOptions& options = {})
      : session_(lm, 1, options), slot_(session_.AcquireSlot()) {}

  /// Extends the sequence with `tokens`; returns their logits [T, V].
  Tensor Feed(const std::vector<int>& tokens) {
    return session_.Step({{slot_, tokens}})[0];
  }

  size_t tokens() const { return session_.tokens(slot_); }
  BatchedDecodeSession::SlotSnapshot Snapshot() const {
    return session_.Snapshot(slot_);
  }
  void Restore(const BatchedDecodeSession::SlotSnapshot& snapshot) {
    session_.ReleaseSlot(slot_);
    slot_ = session_.AcquireSlot();
    session_.Restore(slot_, snapshot);
  }

 private:
  BatchedDecodeSession session_;
  size_t slot_;
};

class KvCacheTest : public ::testing::Test {
 protected:
  KvCacheTest() : rng_(7), lm_(SmallConfig(), &rng_) {}

  util::Rng rng_;
  TransformerLM lm_;
};

TEST_F(KvCacheTest, PrefillMatchesFullForwardAtEveryPromptLength) {
  NoGradGuard no_grad;
  size_t max = lm_.config().max_seq_len;
  for (size_t length = 1; length <= max; ++length) {
    std::vector<int> tokens = RandomTokens(length, /*seed=*/length);
    Tensor full = lm_.Logits(tokens);
    OneSlot session(lm_);
    Tensor cached = session.Feed(tokens);
    ExpectBitIdentical(full, cached);
  }
}

TEST_F(KvCacheTest, SingleTokenDecodeMatchesFullForwardRows) {
  NoGradGuard no_grad;
  std::vector<int> tokens = RandomTokens(lm_.config().max_seq_len, 11);
  Tensor full = lm_.Logits(tokens);
  OneSlot session(lm_);
  for (size_t t = 0; t < tokens.size(); ++t) {
    Tensor step = session.Feed({tokens[t]});
    ASSERT_EQ(step.dim(0), size_t{1});
    ExpectRowsBitIdentical(full, t, step);
  }
  EXPECT_EQ(session.tokens(), tokens.size());
}

TEST_F(KvCacheTest, ChunkSplitPointDoesNotChangeLogits) {
  NoGradGuard no_grad;
  std::vector<int> tokens = RandomTokens(17, 13);
  Tensor full = lm_.Logits(tokens);
  for (size_t split = 1; split < tokens.size(); ++split) {
    OneSlot session(lm_);
    std::vector<int> head(tokens.begin(),
                          tokens.begin() + static_cast<long>(split));
    std::vector<int> tail(tokens.begin() + static_cast<long>(split),
                          tokens.end());
    Tensor head_logits = session.Feed(head);
    Tensor tail_logits = session.Feed(tail);
    ExpectRowsBitIdentical(full, 0, head_logits);
    ExpectRowsBitIdentical(full, split, tail_logits);
  }
}

TEST_F(KvCacheTest, GreedyDecodeMatchesFullRecompute) {
  std::vector<int> prompt = RandomTokens(5, 17);
  EXPECT_EQ(GreedyDecode(lm_, prompt, 12),
            GreedyFullRecompute(lm_, prompt, 12));
}

TEST_F(KvCacheTest, GreedyDecodeMatchesFullRecomputeUpToMaxSeqLen) {
  // No max_new_tokens bound below the model ceiling: both loops must stop
  // at max_seq_len with identical streams.
  std::vector<int> prompt = RandomTokens(3, 19);
  EXPECT_EQ(GreedyDecode(lm_, prompt, 100),
            GreedyFullRecompute(lm_, prompt, 100));
}

TEST_F(KvCacheTest, AdapterHookParity) {
  // InfuserKI-w/o-Ro stack (no gate): the adapter chain is row-wise, so
  // cached decode must be bit-identical with the hook attached.
  core::AdapterStackOptions adapter_options;
  adapter_options.use_infuser = false;
  adapter_options.bottleneck = 8;
  core::KnowledgeAdapterStack stack(lm_.config().dim,
                                    lm_.config().num_layers,
                                    adapter_options);
  // Perturb the zero-initialized up-projections so deltas are non-trivial.
  util::Rng weight_rng(23);
  for (Tensor& t : stack.AdapterParameters()) {
    for (size_t i = 0; i < t.impl()->data.size(); ++i) {
      t.impl()->data[i] +=
          static_cast<float>(weight_rng.Uniform(-0.05, 0.05));
    }
  }
  ASSERT_FALSE(stack.SequenceStateful());
  ForwardOptions options;
  options.hook = &stack;

  NoGradGuard no_grad;
  std::vector<int> tokens = RandomTokens(14, 29);
  Tensor full = lm_.Logits(tokens, options);
  OneSlot session(lm_, options);
  std::vector<int> head(tokens.begin(), tokens.begin() + 9);
  Tensor head_logits = session.Feed(head);
  ExpectRowsBitIdentical(full, 0, head_logits);
  for (size_t t = 9; t < tokens.size(); ++t) {
    ExpectRowsBitIdentical(full, t, session.Feed({tokens[t]}));
  }

  std::vector<int> prompt = RandomTokens(4, 31);
  EXPECT_EQ(GreedyDecode(lm_, prompt, 10, options),
            GreedyFullRecompute(lm_, prompt, 10, options));
}

TEST_F(KvCacheTest, AttentionPlacementAdapterParity) {
  core::AdapterStackOptions adapter_options;
  adapter_options.use_infuser = false;
  adapter_options.bottleneck = 8;
  adapter_options.placement = core::AdapterPlacement::kAttention;
  core::KnowledgeAdapterStack stack(lm_.config().dim,
                                    lm_.config().num_layers,
                                    adapter_options);
  util::Rng weight_rng(37);
  for (Tensor& t : stack.AdapterParameters()) {
    for (size_t i = 0; i < t.impl()->data.size(); ++i) {
      t.impl()->data[i] +=
          static_cast<float>(weight_rng.Uniform(-0.05, 0.05));
    }
  }
  ForwardOptions options;
  options.hook = &stack;
  NoGradGuard no_grad;
  std::vector<int> tokens = RandomTokens(12, 41);
  Tensor full = lm_.Logits(tokens, options);
  OneSlot session(lm_, options);
  Tensor cached = session.Feed(tokens);
  ExpectBitIdentical(full, cached);
}

TEST_F(KvCacheTest, PrefixTuningParity) {
  // Learned prefix rows are seeded into the cache head once and must be
  // indistinguishable from the per-forward concatenation path.
  PrefixKv prefix;
  prefix.prefix_len = 3;
  util::Rng prefix_rng(43);
  for (size_t l = 0; l < lm_.config().num_layers; ++l) {
    prefix.keys.push_back(Tensor::RandUniform(
        {prefix.prefix_len, lm_.config().dim}, &prefix_rng, -0.3f, 0.3f));
    prefix.values.push_back(Tensor::RandUniform(
        {prefix.prefix_len, lm_.config().dim}, &prefix_rng, -0.3f, 0.3f));
  }
  ForwardOptions options;
  options.prefix = &prefix;

  NoGradGuard no_grad;
  std::vector<int> tokens = RandomTokens(10, 47);
  Tensor full = lm_.Logits(tokens, options);
  OneSlot session(lm_, options);
  std::vector<int> head(tokens.begin(), tokens.begin() + 6);
  ExpectRowsBitIdentical(full, 0, session.Feed(head));
  for (size_t t = 6; t < tokens.size(); ++t) {
    ExpectRowsBitIdentical(full, t, session.Feed({tokens[t]}));
  }
}

TEST_F(KvCacheTest, SequenceLogProbMatchesReferenceArithmetic) {
  for (size_t prompt_len : {size_t{1}, size_t{4}, size_t{9}}) {
    std::vector<int> prompt = RandomTokens(prompt_len, 53 + prompt_len);
    for (size_t cont_len : {size_t{1}, size_t{2}, size_t{5}}) {
      std::vector<int> continuation =
          RandomTokens(cont_len, 59 + cont_len);
      EXPECT_EQ(SequenceLogProb(lm_, prompt, continuation),
                SequenceLogProbReference(lm_, prompt, continuation))
          << "prompt_len=" << prompt_len << " cont_len=" << cont_len;
    }
  }
}

TEST_F(KvCacheTest, ScoreOptionsMatchesPerOptionReference) {
  text::Tokenizer tokenizer = text::Tokenizer::Build(
      {"what is the capital ? paris london berlin tokyo answer :"});
  util::Rng rng(61);
  TransformerConfig config = SmallConfig();
  config.vocab_size = tokenizer.vocab_size();
  TransformerLM lm(config, &rng);

  const std::string prompt = "what is the capital ? answer :";
  const std::vector<std::string> options_text = {"paris", "london berlin",
                                                 "tokyo"};
  OptionScores scores =
      ScoreOptions(lm, tokenizer, prompt, options_text);
  std::vector<int> prompt_ids = tokenizer.EncodeWithSpecials(prompt, false);
  ASSERT_EQ(scores.log_probs.size(), options_text.size());
  for (size_t i = 0; i < options_text.size(); ++i) {
    EXPECT_EQ(scores.log_probs[i],
              SequenceLogProbReference(lm, prompt_ids,
                                       tokenizer.Encode(options_text[i])))
        << "option " << i;
  }
}

TEST_F(KvCacheTest, RestoreReproducesBitIdenticalLogits) {
  NoGradGuard no_grad;
  std::vector<int> prompt = RandomTokens(6, 67);
  std::vector<int> continuation_a = RandomTokens(4, 71);
  std::vector<int> continuation_b = RandomTokens(5, 73);

  OneSlot session(lm_);
  session.Feed(prompt);
  BatchedDecodeSession::SlotSnapshot mark = session.Snapshot();
  Tensor first = session.Feed(continuation_a);
  session.Restore(mark);
  EXPECT_EQ(session.tokens(), prompt.size());
  session.Feed(continuation_b);  // pollute, then restore again
  session.Restore(mark);
  Tensor second = session.Feed(continuation_a);
  ExpectBitIdentical(first, second);
  std::vector<int> full = prompt;
  full.insert(full.end(), continuation_a.begin(), continuation_a.end());
  ExpectRowsBitIdentical(lm_.Logits(full), prompt.size(), second);
}

TEST_F(KvCacheTest, GatedAdapterRoutesToFullRecompute) {
  // With the Infuser gate the forward pools over the whole sequence
  // (non-causal), so generation must use the legacy path — and still
  // produce exactly what the legacy loop produces.
  core::AdapterStackOptions adapter_options;
  adapter_options.use_infuser = true;
  adapter_options.bottleneck = 8;
  core::KnowledgeAdapterStack stack(lm_.config().dim,
                                    lm_.config().num_layers,
                                    adapter_options);
  ASSERT_TRUE(stack.SequenceStateful());
  ForwardOptions options;
  options.hook = &stack;
  ASSERT_TRUE(HasSequenceStatefulHook(options));

  std::vector<int> prompt = RandomTokens(4, 79);
  EXPECT_EQ(GreedyDecode(lm_, prompt, 8, options),
            GreedyFullRecompute(lm_, prompt, 8, options));
  std::vector<int> continuation = RandomTokens(3, 83);
  EXPECT_EQ(SequenceLogProb(lm_, prompt, continuation, options),
            SequenceLogProbReference(lm_, prompt, continuation, options));
}

TEST_F(KvCacheTest, SessionRejectsSequenceStatefulHook) {
  core::AdapterStackOptions adapter_options;
  adapter_options.use_infuser = true;
  core::KnowledgeAdapterStack stack(lm_.config().dim,
                                    lm_.config().num_layers,
                                    adapter_options);
  ForwardOptions options;
  options.hook = &stack;
  EXPECT_DEATH(BatchedDecodeSession(lm_, 1, options), "sequence-stateful");
}

TEST_F(KvCacheTest, CacheTracksPrefixRowsSeparately) {
  PrefixKv prefix;
  prefix.prefix_len = 2;
  util::Rng prefix_rng(87);
  for (size_t l = 0; l < lm_.config().num_layers; ++l) {
    prefix.keys.push_back(Tensor::RandUniform(
        {prefix.prefix_len, lm_.config().dim}, &prefix_rng, -0.3f, 0.3f));
    prefix.values.push_back(Tensor::RandUniform(
        {prefix.prefix_len, lm_.config().dim}, &prefix_rng, -0.3f, 0.3f));
  }
  ForwardOptions options;
  options.prefix = &prefix;
  NoGradGuard no_grad;
  std::vector<int> tokens = RandomTokens(5, 89);
  KvCache cache(lm_.config().num_layers, 1);
  lm_.LogitsBatched({{&tokens, 0}}, &cache, options);
  EXPECT_EQ(cache.tokens(0), size_t{5});
  EXPECT_EQ(cache.prefix_rows(0), size_t{2});
  EXPECT_EQ(cache.layer(0, 0)->rows(), size_t{7});

  // A snapshot carries the prefix rows, and a restored slot continues
  // exactly where the prefix-tuned full forward does.
  OneSlot session(lm_, options);
  std::vector<int> head(tokens.begin(), tokens.begin() + 3);
  session.Feed(head);
  BatchedDecodeSession::SlotSnapshot mark = session.Snapshot();
  EXPECT_EQ(mark.tokens, size_t{3});
  EXPECT_EQ(mark.prefix_rows, size_t{2});
  session.Feed({tokens[3]});
  session.Restore(mark);
  EXPECT_EQ(session.tokens(), size_t{3});
  std::vector<int> tail(tokens.begin() + 3, tokens.end());
  ExpectRowsBitIdentical(lm_.Logits(tokens, options), 3, session.Feed(tail));
}

}  // namespace
}  // namespace infuserki::model
