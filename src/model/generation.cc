#include "model/generation.h"

#include <algorithm>
#include <cmath>

#include "model/batched_session.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/threadpool.h"

namespace infuserki::model {

using tensor::NoGradGuard;
using tensor::Tensor;

int ArgmaxRow(const float* row, size_t vocab) {
  int best = 0;
  for (size_t v = 1; v < vocab; ++v) {
    if (row[v] > row[best]) best = static_cast<int>(v);
  }
  return best;
}

void ForEachIndependentForward(size_t n, const ForwardOptions& options,
                               const std::function<void(size_t)>& fn) {
  if (options.hook == nullptr && options.trace == nullptr) {
    util::ParallelForEach(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

namespace {

/// Argmax of the last row of a [T, V] logits tensor.
int ArgmaxLastRow(const Tensor& logits) {
  size_t vocab = logits.dim(1);
  return ArgmaxRow(logits.data() + (logits.dim(0) - 1) * vocab, vocab);
}

/// log P(target | row) via a numerically stable log-softmax. The arithmetic
/// (float max scan, double exp-sum in vocab order) is kept byte-for-byte
/// identical to the full-sequence SequenceLogProb loop so cached and
/// uncached scores agree exactly.
double RowLogProb(const float* row, size_t vocab, int target) {
  float mx = row[0];
  for (size_t v = 1; v < vocab; ++v) mx = std::max(mx, row[v]);
  double sum = 0.0;
  for (size_t v = 0; v < vocab; ++v) {
    sum += std::exp(static_cast<double>(row[v]) - mx);
  }
  return static_cast<double>(row[target]) - mx - std::log(sum);
}

/// Single-sequence view of a one-slot session: the slot it decodes in.
class OneSlot {
 public:
  OneSlot(const TransformerLM& lm, const ForwardOptions& options)
      : session_(lm, /*max_rows=*/1, options), slot_(session_.AcquireSlot()) {}

  /// Extends the sequence with `tokens`; returns their logits [T, V].
  Tensor Feed(std::vector<int> tokens) {
    return session_.Step({{slot_, std::move(tokens)}})[0];
  }

  BatchedDecodeSession::SlotSnapshot Snapshot() const {
    return session_.Snapshot(slot_);
  }

  /// Drops everything fed since `snapshot` was taken on this session.
  void Restore(const BatchedDecodeSession::SlotSnapshot& snapshot) {
    session_.ReleaseSlot(slot_);
    slot_ = session_.AcquireSlot();
    session_.Restore(slot_, snapshot);
  }

 private:
  BatchedDecodeSession session_;
  size_t slot_;
};

/// Sum log P(continuation | cached prompt) against a session whose cache
/// currently ends exactly at the prompt. `prompt_logits` is the prefill
/// result (its last row scores the first continuation token); the remaining
/// continuation tokens are fed incrementally. Leaves the session extended —
/// callers restore.
double ContinuationLogProb(OneSlot* session, const Tensor& prompt_logits,
                           const std::vector<int>& continuation) {
  size_t vocab = prompt_logits.dim(1);
  const float* last_row =
      prompt_logits.data() + (prompt_logits.dim(0) - 1) * vocab;
  double total = RowLogProb(last_row, vocab, continuation[0]);
  if (continuation.size() > 1) {
    Tensor logits = session->Feed(
        std::vector<int>(continuation.begin(), continuation.end() - 1));
    for (size_t i = 0; i + 1 < continuation.size(); ++i) {
      total += RowLogProb(logits.data() + i * vocab, vocab,
                          continuation[i + 1]);
    }
  }
  return total;
}

/// Full-recompute decode loop for sequence-stateful hooks (the Infuser
/// gate pools over every position, so its forward is non-causal and cannot
/// be served from a KV cache — see DESIGN.md §7). Re-runs the model over
/// the whole sequence each step, exactly like the pre-engine code.
std::vector<int> DecodeFullRecompute(const TransformerLM& lm,
                                     const std::vector<int>& prompt_ids,
                                     size_t max_new_tokens,
                                     const ForwardOptions& options) {
  std::vector<int> sequence = prompt_ids;
  std::vector<int> generated;
  for (size_t step = 0; step < max_new_tokens; ++step) {
    if (sequence.size() >= lm.config().max_seq_len) break;
    Tensor logits = lm.Logits(sequence, options);
    int next = ArgmaxLastRow(logits);
    if (next == text::kEosId) break;
    generated.push_back(next);
    sequence.push_back(next);
  }
  return generated;
}

/// Cached decode loop: prefill the prompt once, then one single-token
/// forward per generated token. Token-stream-identical to
/// DecodeFullRecompute for any causal forward (verified bit-exactly in
/// tests/kv_cache_test.cc).
std::vector<int> DecodeCached(const TransformerLM& lm,
                              const std::vector<int>& prompt_ids,
                              size_t max_new_tokens,
                              const ForwardOptions& options) {
  std::vector<int> generated;
  if (max_new_tokens == 0 ||
      prompt_ids.size() >= lm.config().max_seq_len) {
    return generated;
  }
  OneSlot session(lm, options);
  Tensor logits = session.Feed(prompt_ids);
  while (true) {
    int next = ArgmaxLastRow(logits);
    if (next == text::kEosId) break;
    generated.push_back(next);
    if (generated.size() >= max_new_tokens) break;
    if (prompt_ids.size() + generated.size() >= lm.config().max_seq_len) {
      break;
    }
    logits = session.Feed({next});
  }
  return generated;
}

/// Full-sequence scoring fallback for sequence-stateful hooks.
double SequenceLogProbFullRecompute(const TransformerLM& lm,
                                    const std::vector<int>& prompt_ids,
                                    const std::vector<int>& continuation_ids,
                                    const ForwardOptions& options) {
  std::vector<int> full = prompt_ids;
  full.insert(full.end(), continuation_ids.begin(), continuation_ids.end());
  // Drop the final token from the input: its next-token prediction is not
  // needed, and positions prompt_len-1 .. end-2 predict the continuation.
  std::vector<int> inputs(full.begin(), full.end() - 1);
  Tensor logits = lm.Logits(inputs, options);
  size_t vocab = logits.dim(1);
  double total = 0.0;
  for (size_t i = 0; i < continuation_ids.size(); ++i) {
    size_t position = prompt_ids.size() - 1 + i;
    total += RowLogProb(logits.data() + position * vocab, vocab,
                        continuation_ids[i]);
  }
  return total;
}

}  // namespace

std::vector<int> GreedyDecode(const TransformerLM& lm,
                              const std::vector<int>& prompt_ids,
                              size_t max_new_tokens,
                              const ForwardOptions& options) {
  NoGradGuard no_grad;
  if (HasSequenceStatefulHook(options)) {
    return DecodeFullRecompute(lm, prompt_ids, max_new_tokens, options);
  }
  return DecodeCached(lm, prompt_ids, max_new_tokens, options);
}

double SequenceLogProb(const TransformerLM& lm,
                       const std::vector<int>& prompt_ids,
                       const std::vector<int>& continuation_ids,
                       const ForwardOptions& options) {
  CHECK(!prompt_ids.empty());
  CHECK(!continuation_ids.empty());
  CHECK_LE(prompt_ids.size() + continuation_ids.size(),
           lm.config().max_seq_len)
      << "scored sequence exceeds max_seq_len";
  NoGradGuard no_grad;
  if (HasSequenceStatefulHook(options)) {
    return SequenceLogProbFullRecompute(lm, prompt_ids, continuation_ids,
                                        options);
  }
  OneSlot session(lm, options);
  Tensor prompt_logits = session.Feed(prompt_ids);
  return ContinuationLogProb(&session, prompt_logits, continuation_ids);
}

OptionScores ScoreOptions(const TransformerLM& lm,
                          const text::Tokenizer& tokenizer,
                          const std::string& prompt,
                          const std::vector<std::string>& options_text,
                          const ForwardOptions& options) {
  CHECK(!options_text.empty());
  std::vector<int> prompt_ids = tokenizer.EncodeWithSpecials(prompt, false);
  NoGradGuard no_grad;
  bool incremental = !HasSequenceStatefulHook(options);
  OptionScores scores;
  scores.log_probs.reserve(options_text.size());
  std::vector<double> normalized;
  normalized.reserve(options_text.size());
  if (incremental) {
    // Prefill the shared prompt once; every option restores the cached
    // prompt and only its own continuation tokens are forwarded.
    static obs::Counter* const rewinds =
        obs::Registry::Get().GetCounter("engine/rewinds");
    OneSlot session(lm, options);
    Tensor prompt_logits = session.Feed(prompt_ids);
    BatchedDecodeSession::SlotSnapshot prompt_mark = session.Snapshot();
    for (const std::string& option : options_text) {
      std::vector<int> continuation = tokenizer.Encode(option);
      CHECK(!continuation.empty()) << "empty option text";
      CHECK_LE(prompt_ids.size() + continuation.size(),
               lm.config().max_seq_len)
          << "scored sequence exceeds max_seq_len";
      double lp = ContinuationLogProb(&session, prompt_logits, continuation);
      session.Restore(prompt_mark);
      rewinds->Increment();
      scores.log_probs.push_back(lp);
      normalized.push_back(lp / static_cast<double>(continuation.size()));
    }
  } else {
    for (const std::string& option : options_text) {
      std::vector<int> continuation = tokenizer.Encode(option);
      CHECK(!continuation.empty()) << "empty option text";
      double lp = SequenceLogProb(lm, prompt_ids, continuation, options);
      scores.log_probs.push_back(lp);
      normalized.push_back(lp / static_cast<double>(continuation.size()));
    }
  }
  scores.best = static_cast<int>(
      std::max_element(normalized.begin(), normalized.end()) -
      normalized.begin());
  // Softmax over raw sums: the "probability mass over candidate choices"
  // view shown in the paper's case study.
  double mx = *std::max_element(scores.log_probs.begin(),
                                scores.log_probs.end());
  double denom = 0.0;
  for (double lp : scores.log_probs) denom += std::exp(lp - mx);
  for (double lp : scores.log_probs) {
    scores.probabilities.push_back(std::exp(lp - mx) / denom);
  }
  return scores;
}

int ExtractChosenOption(const TransformerLM& lm,
                        const text::Tokenizer& tokenizer,
                        const std::string& prompt,
                        const std::vector<std::string>& options_text,
                        const ForwardOptions& options) {
  std::vector<int> prompt_ids = tokenizer.EncodeWithSpecials(prompt, false);
  std::vector<int> generated = GreedyDecode(lm, prompt_ids, 12, options);
  // Case-normalize the response once so the option-text fallback below
  // compares lowercase needles against a lowercase haystack. Ids the model
  // emits are always in-vocabulary; an undecodable response extracts
  // nothing, which the caller counts as incorrect.
  util::StatusOr<std::string> decoded = tokenizer.Decode(generated);
  const std::string response =
      decoded.ok() ? util::ToLower(*decoded) : std::string();
  // Letter form: "( a )" etc.
  for (size_t i = 0; i < options_text.size(); ++i) {
    std::string letter =
        std::string("( ") + static_cast<char>('a' + i) + " )";
    if (util::Contains(response, letter)) return static_cast<int>(i);
  }
  // Fall back to option-text containment, longest match first so nested
  // option names resolve to the most specific one.
  int best = -1;
  size_t best_len = 0;
  for (size_t i = 0; i < options_text.size(); ++i) {
    const std::string needle = util::ToLower(options_text[i]);
    if (needle.size() > best_len && util::Contains(response, needle)) {
      best = static_cast<int>(i);
      best_len = needle.size();
    }
  }
  return best;
}

}  // namespace infuserki::model
