#ifndef INFUSERKI_EVAL_DOWNSTREAM_H_
#define INFUSERKI_EVAL_DOWNSTREAM_H_

#include <string>
#include <vector>

#include "kg/dataset.h"
#include "model/transformer.h"
#include "text/tokenizer.h"

namespace infuserki::eval {

/// One downstream yes/no item (the synthetic PubMedQA stand-in): a claim
/// derived from a KG fact, possibly corrupted, asked in a phrasing never
/// used during training.
struct ClaimItem {
  size_t triplet_index = 0;
  std::string prompt;
  bool label = true;  // claim is true
};

/// Builds the PubMedQA-substitute task: "it is claimed that <statement> .
/// is this claim true ?" with half the claims corrupted by swapping the
/// object for another same-relation entity.
std::vector<ClaimItem> BuildClaimVerificationTask(
    const kg::KnowledgeGraph& kg, const kg::TemplateEngine& templates,
    const std::vector<size_t>& triplet_indices, util::Rng* rng);

/// Scores the claim task by yes/no continuation likelihood; returns the
/// binary macro-F1.
double EvaluateClaimTask(const model::TransformerLM& lm,
                         const text::Tokenizer& tokenizer,
                         const std::vector<ClaimItem>& items,
                         const model::ForwardOptions& options = {});

/// One open (no options shown) 1-hop KGQA item — the MetaQA-1Hop stand-in.
struct OneHopItem {
  size_t triplet_index = 0;
  std::string prompt;                   // unseen-template question
  std::vector<std::string> candidates;  // answer pool incl. the gold answer
  int gold = 0;                         // index into candidates
};

/// Builds the 1-hop task over `triplet_indices` using an unseen QA template
/// and a per-question candidate pool from the relation's tails.
std::vector<OneHopItem> Build1HopTask(const kg::KnowledgeGraph& kg,
                                      const kg::TemplateEngine& templates,
                                      const std::vector<size_t>& indices,
                                      size_t max_candidates,
                                      util::Rng* rng);

/// Scores the 1-hop task by candidate likelihood; returns accuracy (the
/// paper reports it as a Hits@1-style F1).
double Evaluate1HopTask(const model::TransformerLM& lm,
                        const text::Tokenizer& tokenizer,
                        const std::vector<OneHopItem>& items,
                        const model::ForwardOptions& options = {});

}  // namespace infuserki::eval

#endif  // INFUSERKI_EVAL_DOWNSTREAM_H_
