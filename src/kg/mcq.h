#ifndef INFUSERKI_KG_MCQ_H_
#define INFUSERKI_KG_MCQ_H_

#include <array>
#include <string>
#include <vector>

#include "kg/graph.h"
#include "kg/templates.h"
#include "util/rng.h"

namespace infuserki::kg {

/// One multiple-choice question derived from a knowledge triplet
/// (§3.2 "Multiple-choice Question Generation").
struct Mcq {
  size_t triplet_index = 0;  // into KnowledgeGraph::triplets()
  int template_id = 1;       // 1..kNumTemplates
  std::string question;
  std::array<std::string, 4> options;
  int correct = 0;  // index into options
};

/// Builds MCQs with the distractor policy of Appendix A.1:
///   * the first distractor is the pool candidate with minimal edit
///     distance to the *head* entity;
///   * the remaining two are drawn at random from the ten candidates
///     closest (by edit distance) to the correct answer;
///   * option order is then shuffled.
/// The candidate pool is the relation's tail pool (type-plausible
/// distractors); if it is too small, random entities pad it out.
class McqBuilder {
 public:
  McqBuilder(const KnowledgeGraph* kg, const TemplateEngine* templates);

  Mcq Build(size_t triplet_index, int template_id, util::Rng* rng) const;

  /// Builds one MCQ per triplet with the given template.
  std::vector<Mcq> BuildAll(int template_id, util::Rng* rng) const;

 private:
  const KnowledgeGraph* kg_;
  const TemplateEngine* templates_;
};

/// Compact prompt for the LM, terminated by "answer :" so that the gold
/// continuation is the answer text. Lettered options mirror the paper's
/// (A)-(D) format. Used by the generation/extraction answer path.
std::string FormatMcqPrompt(const Mcq& mcq);

/// Option-free prompt ("question : <q> answer :"). Training and
/// likelihood-scored evaluation use this format: the options stay scoring
/// candidates rather than prompt text, which prevents the word-level
/// simulator LM from shortcut-learning the option layout instead of the
/// question -> answer mapping (see DESIGN.md substitution notes).
std::string FormatQuestionPrompt(const Mcq& mcq);

/// The gold response text for an MCQ: "( <letter> ) <answer text>".
std::string McqGoldResponse(const Mcq& mcq);

/// Option letter ('a'..'d') for index 0..3.
char OptionLetter(int index);

}  // namespace infuserki::kg

#endif  // INFUSERKI_KG_MCQ_H_
