#include "core/detection.h"

#include "obs/trace.h"
#include "util/logging.h"

namespace infuserki::core {

int AnswerMcq(const model::TransformerLM& lm,
              const text::Tokenizer& tokenizer, const kg::Mcq& mcq,
              AnswerMode mode, const model::ForwardOptions& options) {
  std::vector<std::string> option_texts(mcq.options.begin(),
                                        mcq.options.end());
  if (mode == AnswerMode::kGeneration) {
    // Paper-faithful path: the full lettered-option prompt, greedy decode,
    // option extraction.
    return model::ExtractChosenOption(lm, tokenizer, kg::FormatMcqPrompt(mcq),
                                      option_texts, options);
  }
  // Likelihood path: option-free prompt, options scored as continuations.
  return model::ScoreOptions(lm, tokenizer, kg::FormatQuestionPrompt(mcq),
                             option_texts, options)
      .best;
}

DetectionResult DetectKnowledge(const model::TransformerLM& lm,
                                const text::Tokenizer& tokenizer,
                                const std::vector<kg::Mcq>& questions,
                                AnswerMode mode,
                                const model::ForwardOptions& options) {
  OBS_SPAN("detection/detect_knowledge");
  DetectionResult result;
  size_t max_index = 0;
  for (const kg::Mcq& mcq : questions) {
    max_index = std::max(max_index, mcq.triplet_index);
  }
  result.is_known.assign(max_index + 1, 0);
  // Answers are collected by index and aggregated sequentially, so
  // known/unknown ordering matches the sequential loop exactly.
  std::vector<int> chosen(questions.size(), -1);
  model::ForEachIndependentForward(questions.size(), options, [&](size_t i) {
    chosen[i] = AnswerMcq(lm, tokenizer, questions[i], mode, options);
  });
  for (size_t i = 0; i < questions.size(); ++i) {
    const kg::Mcq& mcq = questions[i];
    // An unextractable answer counts as incorrect (§3.2).
    if (chosen[i] == mcq.correct) {
      result.known.push_back(mcq.triplet_index);
      result.is_known[mcq.triplet_index] = 1;
    } else {
      result.unknown.push_back(mcq.triplet_index);
    }
  }
  return result;
}

}  // namespace infuserki::core
