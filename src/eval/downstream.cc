#include "eval/downstream.h"

#include <algorithm>

#include "eval/metrics.h"
#include "model/generation.h"
#include "util/logging.h"

namespace infuserki::eval {

std::vector<ClaimItem> BuildClaimVerificationTask(
    const kg::KnowledgeGraph& kg, const kg::TemplateEngine& templates,
    const std::vector<size_t>& triplet_indices, util::Rng* rng) {
  std::vector<ClaimItem> items;
  items.reserve(triplet_indices.size());
  for (size_t index : triplet_indices) {
    const kg::Triplet& triplet = kg.triplets()[index];
    ClaimItem item;
    item.triplet_index = index;
    bool corrupt = rng->Bernoulli(0.5);
    std::string statement;
    if (corrupt) {
      const std::vector<int>& pool = kg.TailPool(triplet.relation);
      int fake = triplet.tail;
      for (int attempt = 0; attempt < 20 && fake == triplet.tail;
           ++attempt) {
        fake = rng->Choice(pool);
      }
      if (fake == triplet.tail) {
        corrupt = false;  // degenerate pool: keep the true claim
      } else {
        kg::Triplet corrupted = triplet;
        corrupted.tail = fake;
        statement = templates.Statement(kg, corrupted);
      }
    }
    if (!corrupt) statement = templates.Statement(kg, triplet);
    item.label = !corrupt;
    item.prompt = "it is claimed that " + statement +
                  " is this claim true ? answer :";
    items.push_back(std::move(item));
  }
  return items;
}

double EvaluateClaimTask(const model::TransformerLM& lm,
                         const text::Tokenizer& tokenizer,
                         const std::vector<ClaimItem>& items,
                         const model::ForwardOptions& options) {
  CHECK(!items.empty());
  std::vector<int> predictions(items.size());
  std::vector<int> labels(items.size());
  const std::vector<std::string> yes_no = {"no", "yes"};
  model::ForEachIndependentForward(items.size(), options, [&](size_t i) {
    model::OptionScores scores =
        model::ScoreOptions(lm, tokenizer, items[i].prompt, yes_no, options);
    predictions[i] = scores.best;
    labels[i] = items[i].label ? 1 : 0;
  });
  return BinaryMacroF1(predictions, labels);
}

std::vector<OneHopItem> Build1HopTask(const kg::KnowledgeGraph& kg,
                                      const kg::TemplateEngine& templates,
                                      const std::vector<size_t>& indices,
                                      size_t max_candidates,
                                      util::Rng* rng) {
  CHECK_GE(max_candidates, size_t{2});
  std::vector<OneHopItem> items;
  items.reserve(indices.size());
  for (size_t index : indices) {
    const kg::Triplet& triplet = kg.triplets()[index];
    OneHopItem item;
    item.triplet_index = index;
    // Unseen template (T4) phrased as an open question, no options shown.
    item.prompt = "question : " +
                  templates.Question(kg, triplet, /*template_id=*/4) +
                  " answer :";
    std::vector<int> pool;
    for (int id : kg.TailPool(triplet.relation)) {
      if (id != triplet.tail) pool.push_back(id);
    }
    rng->Shuffle(&pool);
    if (pool.size() > max_candidates - 1) pool.resize(max_candidates - 1);
    pool.push_back(triplet.tail);
    rng->Shuffle(&pool);
    for (size_t i = 0; i < pool.size(); ++i) {
      item.candidates.push_back(kg.entity(pool[i]).name);
      if (pool[i] == triplet.tail) item.gold = static_cast<int>(i);
    }
    items.push_back(std::move(item));
  }
  return items;
}

double Evaluate1HopTask(const model::TransformerLM& lm,
                        const text::Tokenizer& tokenizer,
                        const std::vector<OneHopItem>& items,
                        const model::ForwardOptions& options) {
  CHECK(!items.empty());
  std::vector<int> predictions(items.size());
  std::vector<int> labels(items.size());
  model::ForEachIndependentForward(items.size(), options, [&](size_t i) {
    model::OptionScores scores = model::ScoreOptions(
        lm, tokenizer, items[i].prompt, items[i].candidates, options);
    predictions[i] = scores.best;
    labels[i] = items[i].gold;
  });
  return Accuracy(predictions, labels);
}

}  // namespace infuserki::eval
