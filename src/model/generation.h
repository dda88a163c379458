#ifndef INFUSERKI_MODEL_GENERATION_H_
#define INFUSERKI_MODEL_GENERATION_H_

#include <string>
#include <vector>

#include "model/transformer.h"
#include "text/tokenizer.h"

namespace infuserki::model {

/// Index of the largest of `vocab` logits; the first maximum wins ties.
/// The one greedy pick: GreedyDecode and the serving scheduler both call
/// it, so their token streams agree bit for bit.
int ArgmaxRow(const float* row, size_t vocab);

/// Greedy (argmax) decoding. Returns only the newly generated ids; stops at
/// <eos> or after `max_new_tokens`.
std::vector<int> GreedyDecode(const TransformerLM& lm,
                              const std::vector<int>& prompt_ids,
                              size_t max_new_tokens,
                              const ForwardOptions& options = {});

/// Sum of log P(continuation | prompt) under the LM, in nats.
double SequenceLogProb(const TransformerLM& lm,
                       const std::vector<int>& prompt_ids,
                       const std::vector<int>& continuation_ids,
                       const ForwardOptions& options = {});

/// Result of scoring one MCQ's options by continuation likelihood.
struct OptionScores {
  std::vector<double> log_probs;         // sum log-prob per option
  std::vector<double> probabilities;     // softmax of log_probs (Fig. 7 view)
  int best = 0;  // argmax of length-normalized log-prob (the decision rule)
};

/// Scores each option text as a continuation of `prompt`. The decision uses
/// length-normalized log-probabilities (standard small-LM MCQ protocol);
/// `probabilities` reproduces the distribution-over-choices view from the
/// paper's Fig. 7 case study.
OptionScores ScoreOptions(const TransformerLM& lm,
                          const text::Tokenizer& tokenizer,
                          const std::string& prompt,
                          const std::vector<std::string>& options_text,
                          const ForwardOptions& options = {});

/// Paper-faithful answer extraction (§3.2): greedily decodes a response and
/// extracts the chosen option, matching "( x )" letters first and falling
/// back to option-text containment. Returns the option index or -1 when
/// nothing can be extracted (which the paper counts as incorrect).
int ExtractChosenOption(const TransformerLM& lm,
                        const text::Tokenizer& tokenizer,
                        const std::string& prompt,
                        const std::vector<std::string>& options_text,
                        const ForwardOptions& options = {});

}  // namespace infuserki::model

#endif  // INFUSERKI_MODEL_GENERATION_H_
