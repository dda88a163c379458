#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/adapter_stack.h"
#include "core/ki_method.h"
#include "model/batched_session.h"
#include "model/kv_cache.h"
#include "model/transformer.h"
#include "peft/calinet.h"
#include "peft/lora.h"
#include "peft/prefix_tuning.h"
#include "peft/tpatcher.h"
#include "text/tokenizer.h"
#include "util/rng.h"

// Bit-exactness suite for ragged batched decode (DESIGN.md §11): every row
// of a batched Step must reproduce, byte-for-byte, the full-sequence
// TransformerLM::Logits rows of that row's own sequence — across mixed
// prompt lengths, mid-decode admission, slot recycling, snapshot/restore
// prefix sharing, and every position-wise hook and PEFT variant. All
// comparisons are exact float equality on purpose — "close enough" would
// hide order-of-operations drift between the packed and sequential paths.

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
  config.max_seq_len = 32;
  return config;
}

std::vector<int> RandomTokens(size_t count, uint64_t seed,
                              int vocab_size = 40) {
  util::Rng rng(seed);
  std::vector<int> tokens(count);
  for (int& t : tokens) {
    // Avoid special ids so EOS handling never truncates.
    t = static_cast<int>(rng.UniformInt(4, vocab_size - 1));
  }
  return tokens;
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.dim(0), b.dim(0)) << what;
  ASSERT_EQ(a.dim(1), b.dim(1)) << what;
  size_t count = a.dim(0) * a.dim(1);
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " element " << i;
  }
}

/// The last `count` rows of the full-sequence logits over `sequence`: what
/// a cached row that just fed the final `count` tokens must reproduce.
Tensor FullLogitsTail(const TransformerLM& lm,
                      const std::vector<int>& sequence, size_t count,
                      const ForwardOptions& options = {}) {
  NoGradGuard no_grad;
  Tensor full = lm.Logits(sequence, options);
  return tensor::SliceRows(full, full.dim(0) - count, count);
}

std::vector<int> Concat(std::vector<int> a, const std::vector<int>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

int ArgmaxLast(const Tensor& logits) {
  size_t vocab = logits.dim(1);
  const float* row = logits.data() + (logits.dim(0) - 1) * vocab;
  int best = 0;
  for (size_t v = 1; v < vocab; ++v) {
    if (row[v] > row[best]) best = static_cast<int>(v);
  }
  return best;
}

class BatchedDecodeTest : public ::testing::Test {
 protected:
  BatchedDecodeTest() : rng_(1234), lm_(SmallConfig(), &rng_) {}

  util::Rng rng_;
  TransformerLM lm_;
};

// Mixed-length prompts prefilled together in one ragged step produce —
// row for row — the full-sequence logits of each prompt alone.
TEST_F(BatchedDecodeTest, BatchedPrefillMatchesSequential) {
  std::vector<std::vector<int>> prompts = {
      RandomTokens(7, 11), RandomTokens(1, 22), RandomTokens(13, 33),
      RandomTokens(4, 44)};

  BatchedDecodeSession batched(lm_, prompts.size());
  std::vector<BatchedDecodeSession::RowInput> rows;
  for (const std::vector<int>& prompt : prompts) {
    rows.push_back({batched.AcquireSlot(), prompt});
  }
  std::vector<Tensor> batched_logits = batched.Step(rows);

  for (size_t r = 0; r < prompts.size(); ++r) {
    ExpectBitIdentical(batched_logits[r],
                       FullLogitsTail(lm_, prompts[r], prompts[r].size()),
                       "prefill row " + std::to_string(r));
  }
}

// Greedy decode across many steps: every row of the batch follows the
// exact token trajectory (and logits) of its own sequence decoded alone.
TEST_F(BatchedDecodeTest, BatchedGreedyDecodeMatchesSequential) {
  std::vector<std::vector<int>> sequences = {
      RandomTokens(5, 1), RandomTokens(9, 2), RandomTokens(2, 3)};
  const size_t steps = 8;

  BatchedDecodeSession batched(lm_, sequences.size());
  std::vector<BatchedDecodeSession::RowInput> rows;
  for (const std::vector<int>& prompt : sequences) {
    rows.push_back({batched.AcquireSlot(), prompt});
  }
  std::vector<Tensor> batched_logits = batched.Step(rows);

  for (size_t step = 0; step < steps; ++step) {
    std::vector<BatchedDecodeSession::RowInput> decode_rows;
    for (size_t r = 0; r < sequences.size(); ++r) {
      Tensor reference = FullLogitsTail(lm_, sequences[r], 1);
      int batched_next = ArgmaxLast(batched_logits[r]);
      ASSERT_EQ(batched_next, ArgmaxLast(reference))
          << "step " << step << " row " << r;
      sequences[r].push_back(batched_next);
      decode_rows.push_back({rows[r].slot, {batched_next}});
    }
    batched_logits = batched.Step(decode_rows);
    for (size_t r = 0; r < sequences.size(); ++r) {
      ExpectBitIdentical(
          batched_logits[r], FullLogitsTail(lm_, sequences[r], 1),
          "step " + std::to_string(step) + " row " + std::to_string(r));
    }
  }
}

// Continuous batching's core move: a new prompt's prefill joins a step in
// which other rows decode single tokens. Neither the prefill nor the
// in-flight rows drift from their sequential references.
TEST_F(BatchedDecodeTest, MidDecodeAdmissionStaysBitExact) {
  std::vector<int> prompt_a = RandomTokens(6, 7);
  std::vector<int> prompt_b = RandomTokens(3, 8);
  std::vector<int> prompt_c = RandomTokens(10, 9);

  BatchedDecodeSession batched(lm_, 3);
  size_t slot_a = batched.AcquireSlot();
  size_t slot_b = batched.AcquireSlot();
  std::vector<Tensor> logits =
      batched.Step({{slot_a, prompt_a}, {slot_b, prompt_b}});
  ExpectBitIdentical(logits[0], FullLogitsTail(lm_, prompt_a, 6), "a");
  ExpectBitIdentical(logits[1], FullLogitsTail(lm_, prompt_b, 3), "b");
  int next_a = ArgmaxLast(logits[0]);
  int next_b = ArgmaxLast(logits[1]);

  // Row C is admitted while A and B decode: one ragged step mixes a
  // 10-token prefill with two 1-token decodes.
  size_t slot_c = batched.AcquireSlot();
  logits = batched.Step(
      {{slot_a, {next_a}}, {slot_c, prompt_c}, {slot_b, {next_b}}});
  ExpectBitIdentical(logits[0],
                     FullLogitsTail(lm_, Concat(prompt_a, {next_a}), 1),
                     "row a");
  ExpectBitIdentical(logits[1], FullLogitsTail(lm_, prompt_c, 10), "row c");
  ExpectBitIdentical(logits[2],
                     FullLogitsTail(lm_, Concat(prompt_b, {next_b}), 1),
                     "row b");
}

// Releasing a slot and reusing it for a different prompt must leave no
// residue from the previous occupant.
TEST_F(BatchedDecodeTest, SlotRecyclingLeavesNoResidue) {
  std::vector<int> first = RandomTokens(12, 5);
  std::vector<int> second = RandomTokens(6, 6);

  BatchedDecodeSession batched(lm_, 1);
  size_t slot = batched.AcquireSlot();
  batched.Step({{slot, first}});
  batched.ReleaseSlot(slot);

  size_t reused = batched.AcquireSlot();
  EXPECT_EQ(reused, slot);
  EXPECT_EQ(batched.tokens(reused), 0u);
  std::vector<Tensor> logits = batched.Step({{reused, second}});
  ExpectBitIdentical(logits[0], FullLogitsTail(lm_, second, second.size()),
                     "recycled");
}

// Snapshot at the prompt boundary, restore into two fresh slots, decode
// both: each continuation is bit-exact with the full forward over prompt
// plus continuation — the serving layer's prefix-sharing path.
TEST_F(BatchedDecodeTest, SharedSnapshotRestoreStaysBitExact) {
  std::vector<int> prompt = RandomTokens(8, 17);

  BatchedDecodeSession batched(lm_, 3);
  size_t warm = batched.AcquireSlot();
  std::vector<Tensor> prefill = batched.Step({{warm, prompt}});
  BatchedDecodeSession::SlotSnapshot snapshot = batched.Snapshot(warm);
  EXPECT_EQ(snapshot.tokens, prompt.size());
  EXPECT_EQ(snapshot.prefix_rows, 0u);
  int first = ArgmaxLast(prefill[0]);
  // Decode the warm row PAST the boundary first, proving the snapshot is
  // frozen rather than aliased to the live slot.
  batched.Step({{warm, {first}}});

  size_t row1 = batched.AcquireSlot();
  size_t row2 = batched.AcquireSlot();
  batched.Restore(row1, snapshot);
  batched.Restore(row2, snapshot);
  EXPECT_EQ(batched.tokens(row1), prompt.size());

  // Both restored rows continue with the same token; both must match the
  // full-sequence continuation exactly (and each other).
  Tensor reference = FullLogitsTail(lm_, Concat(prompt, {first}), 1);
  std::vector<Tensor> logits =
      batched.Step({{row1, {first}}, {row2, {first}}});
  ExpectBitIdentical(logits[0], reference, "restored row 1");
  ExpectBitIdentical(logits[1], reference, "restored row 2");
}

/// One model variant served through a session: the ForwardOptions a PEFT
/// method contributes, on a model it may have wrapped (LoRA).
struct Variant {
  std::string name;
  std::function<std::unique_ptr<core::KiMethod>(TransformerLM*)> make;
};

// Every position-wise extension rides the batched path: a multi-row Step
// that mixes prefill and decode rows under each trained method's hooks,
// LoRA-wrapped projections or prefix rows reproduces each row's
// full-sequence Logits rows bit for bit.
TEST(BatchedDecodeHooks, MixedStepMatchesFullLogitsUnderEveryVariant) {
  text::Tokenizer tokenizer = text::Tokenizer::Build(
      {"question : what is x y ? answer : alpha beta gamma delta"});
  core::KiTrainData data;
  data.tokenizer = &tokenizer;
  kg::KnowledgeGraph kg;
  data.kg = &kg;
  kg::QaSample sample;
  sample.prompt = "question : what is x ? answer :";
  sample.response = "alpha";
  data.unknown_qa.push_back(sample);
  sample.prompt = "question : what is y ? answer :";
  sample.response = "beta gamma";
  data.unknown_qa.push_back(sample);

  const std::vector<Variant> variants = {
      {"calinet",
       [](TransformerLM* lm) {
         peft::CalinetOptions options;
         options.layer = 1;
         options.num_slots = 8;
         options.epochs = 3;
         return std::unique_ptr<core::KiMethod>(
             new peft::CalinetMethod(lm, options));
       }},
      {"tpatcher",
       [](TransformerLM* lm) {
         peft::TPatcherOptions options;
         options.epochs = 3;
         return std::unique_ptr<core::KiMethod>(
             new peft::TPatcherMethod(lm, options));
       }},
      {"lora",
       [](TransformerLM* lm) {
         peft::LoraOptions options;
         options.epochs = 3;
         return std::unique_ptr<core::KiMethod>(
             new peft::LoraMethod(lm, options));
       }},
      {"prefix_tuning",
       [](TransformerLM* lm) {
         peft::PrefixTuningOptions options;
         options.prefix_len = 3;
         options.epochs = 3;
         return std::unique_ptr<core::KiMethod>(
             new peft::PrefixTuningMethod(lm, options));
       }},
  };
  const int vocab = static_cast<int>(tokenizer.vocab_size());
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    TransformerConfig config = SmallConfig();
    config.vocab_size = tokenizer.vocab_size();
    util::Rng rng(77);
    TransformerLM lm(config, &rng);
    std::unique_ptr<core::KiMethod> method = variant.make(&lm);
    method->Train(data);
    ForwardOptions options = method->Forward();

    std::vector<int> seq_a = RandomTokens(5, 101, vocab);
    std::vector<int> seq_b = RandomTokens(3, 102, vocab);
    std::vector<int> seq_c = RandomTokens(7, 103, vocab);
    BatchedDecodeSession batched(lm, 3, options);
    size_t slot_a = batched.AcquireSlot();
    size_t slot_b = batched.AcquireSlot();
    std::vector<Tensor> logits =
        batched.Step({{slot_a, seq_a}, {slot_b, seq_b}});
    ExpectBitIdentical(logits[0], FullLogitsTail(lm, seq_a, 5, options),
                       "prefill a");
    ExpectBitIdentical(logits[1], FullLogitsTail(lm, seq_b, 3, options),
                       "prefill b");

    // A prefill row between two decode rows, then an all-decode step.
    size_t slot_c = batched.AcquireSlot();
    for (size_t step = 0; step < 2; ++step) {
      int next_a = ArgmaxLast(logits[0]);
      int next_b = ArgmaxLast(logits[step == 0 ? 1 : 2]);
      seq_a.push_back(next_a);
      seq_b.push_back(next_b);
      std::vector<BatchedDecodeSession::RowInput> rows = {
          {slot_a, {next_a}}, {slot_c, seq_c}, {slot_b, {next_b}}};
      if (step == 1) {
        seq_c.push_back(ArgmaxLast(logits[1]));
        rows[1].tokens = {seq_c.back()};
      }
      logits = batched.Step(rows);
      std::string at = " at step " + std::to_string(step);
      ExpectBitIdentical(logits[0], FullLogitsTail(lm, seq_a, 1, options),
                         "decode a" + at);
      ExpectBitIdentical(logits[1],
                         FullLogitsTail(lm, seq_c, rows[1].tokens.size(),
                                        options),
                         "row c" + at);
      ExpectBitIdentical(logits[2], FullLogitsTail(lm, seq_b, 1, options),
                         "decode b" + at);
    }
  }
}

// A pinned adapter version is served through a PositionWiseAdapterHook:
// rows on the adapter and rows on the base model share one Step, and each
// matches the full forward under its own version.
TEST_F(BatchedDecodeTest, PinnedAdapterRowsMatchHookedFullLogits) {
  core::AdapterStackOptions stack_options;
  stack_options.first_layer = 0;
  stack_options.bottleneck = 4;
  stack_options.use_infuser = false;
  core::KnowledgeAdapterStack stack(lm_.config().dim,
                                    lm_.config().num_layers, stack_options);
  util::Rng weight_rng(5);
  for (Tensor& t : stack.AdapterParameters()) {
    for (float& v : t.impl()->data) {
      v = static_cast<float>(weight_rng.Normal(0.0, 0.1));
    }
  }
  auto adapter = stack.ExportPositionWise();
  ASSERT_TRUE(adapter.ok()) << adapter.status();
  ForwardOptions stack_forward;
  stack_forward.hook = &stack;

  std::vector<int> adapted = RandomTokens(6, 61);
  std::vector<int> base = RandomTokens(4, 62);
  BatchedDecodeSession batched(lm_, 2);
  size_t slot_adapted = batched.AcquireSlot();
  size_t slot_base = batched.AcquireSlot();
  std::vector<Tensor> logits =
      batched.Step({{slot_adapted, adapted, adapter.value().get()},
                    {slot_base, base, nullptr}});
  ExpectBitIdentical(logits[0],
                     FullLogitsTail(lm_, adapted, 6, stack_forward),
                     "adapted prefill");
  ExpectBitIdentical(logits[1], FullLogitsTail(lm_, base, 4), "base prefill");
  int next_adapted = ArgmaxLast(logits[0]);
  int next_base = ArgmaxLast(logits[1]);
  logits = batched.Step(
      {{slot_base, {next_base}, nullptr},
       {slot_adapted, {next_adapted}, adapter.value().get()}});
  ExpectBitIdentical(logits[0],
                     FullLogitsTail(lm_, Concat(base, {next_base}), 1),
                     "base decode");
  ExpectBitIdentical(
      logits[1],
      FullLogitsTail(lm_, Concat(adapted, {next_adapted}), 1,
                     stack_forward),
      "adapted decode");
}

// KvCache slot pooling: extending or resetting one slot must not disturb
// the pages of another.
TEST(KvCacheSlots, SlotsAreIndependent) {
  NoGradGuard no_grad;
  util::Rng rng(99);
  TransformerLM lm(SmallConfig(), &rng);
  KvCache cache(lm.config().num_layers, 2);

  std::vector<int> tokens_a = RandomTokens(5, 1);
  std::vector<int> tokens_b = RandomTokens(7, 2);
  lm.HiddenBatched({{&tokens_a, 0}, {&tokens_b, 1}}, &cache);
  EXPECT_EQ(cache.tokens(0), 5u);
  EXPECT_EQ(cache.tokens(1), 7u);

  std::vector<float> slot1_k(cache.layer(0, 1)->k.data(),
                             cache.layer(0, 1)->k.data() +
                                 cache.layer(0, 1)->k.size());
  std::vector<int> more = RandomTokens(2, 3);
  lm.HiddenBatched({{&more, 0}}, &cache);
  EXPECT_EQ(cache.tokens(0), 7u);
  EXPECT_EQ(cache.tokens(1), 7u);
  cache.ResetSlot(0);
  EXPECT_EQ(cache.tokens(0), 0u);
  EXPECT_FALSE(cache.seeded(0));
  ASSERT_EQ(cache.layer(0, 1)->k.size(), slot1_k.size());
  for (size_t i = 0; i < slot1_k.size(); ++i) {
    EXPECT_EQ(cache.layer(0, 1)->k.data()[i], slot1_k[i]) << i;
  }
}

}  // namespace
}  // namespace infuserki::model
