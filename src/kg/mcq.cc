#include "kg/mcq.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace infuserki::kg {
namespace {

constexpr size_t kNearestPoolSize = 10;

}  // namespace

McqBuilder::McqBuilder(const KnowledgeGraph* kg,
                       const TemplateEngine* templates)
    : kg_(kg), templates_(templates) {
  CHECK(kg != nullptr);
  CHECK(templates != nullptr);
}

Mcq McqBuilder::Build(size_t triplet_index, int template_id,
                      util::Rng* rng) const {
  CHECK_LT(triplet_index, kg_->num_triplets());
  const Triplet& triplet = kg_->triplets()[triplet_index];
  const std::string& head_name = kg_->entity(triplet.head).name;
  const std::string& answer = kg_->entity(triplet.tail).name;

  // Candidate distractors: the relation's tail pool minus the answer,
  // padded with random entities when the pool is thin.
  std::vector<int> pool;
  for (int id : kg_->TailPool(triplet.relation)) {
    if (id != triplet.tail) pool.push_back(id);
  }
  while (pool.size() < 3) {
    int id = static_cast<int>(rng->UniformInt(
        0, static_cast<int64_t>(kg_->num_entities()) - 1));
    if (id == triplet.tail ||
        std::find(pool.begin(), pool.end(), id) != pool.end()) {
      continue;
    }
    pool.push_back(id);
  }

  // Distractor 1: minimal edit distance to the head entity.
  size_t best = std::numeric_limits<size_t>::max();
  int first = pool[0];
  const util::EditDistanceFrom from_head(head_name);
  for (int id : pool) {
    size_t d = from_head.To(kg_->entity(id).name);
    if (d < best) {
      best = d;
      first = id;
    }
  }

  // Distractors 2-3: random among the ten candidates closest to the answer.
  // (distance, id) keys are unique, so the partial sort's first `take`
  // entries are those of a full sort.
  const util::EditDistanceFrom from_answer(answer);
  std::vector<std::pair<size_t, int>> by_answer_distance;
  by_answer_distance.reserve(pool.size());
  for (int id : pool) {
    if (id == first) continue;
    by_answer_distance.emplace_back(from_answer.To(kg_->entity(id).name), id);
  }
  size_t take = std::min(kNearestPoolSize, by_answer_distance.size());
  auto cut = by_answer_distance.begin() + static_cast<std::ptrdiff_t>(take);
  std::partial_sort(by_answer_distance.begin(), cut, by_answer_distance.end());
  std::vector<int> nearest;
  nearest.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    nearest.push_back(by_answer_distance[i].second);
  }
  rng->Shuffle(&nearest);
  // Pool padding above guarantees at least two candidates here.
  CHECK_GE(nearest.size(), size_t{2});
  int second = nearest[0];
  int third = nearest[1];

  Mcq mcq;
  mcq.triplet_index = triplet_index;
  mcq.template_id = template_id;
  mcq.question = templates_->Question(*kg_, triplet, template_id);
  std::vector<int> option_ids = {triplet.tail, first, second, third};
  rng->Shuffle(&option_ids);
  for (size_t i = 0; i < option_ids.size(); ++i) {
    mcq.options[i] = kg_->entity(option_ids[i]).name;
    if (option_ids[i] == triplet.tail) mcq.correct = static_cast<int>(i);
  }
  return mcq;
}

std::vector<Mcq> McqBuilder::BuildAll(int template_id,
                                      util::Rng* rng) const {
  std::vector<Mcq> out;
  out.reserve(kg_->num_triplets());
  for (size_t i = 0; i < kg_->num_triplets(); ++i) {
    out.push_back(Build(i, template_id, rng));
  }
  return out;
}

std::string FormatMcqPrompt(const Mcq& mcq) {
  std::string prompt = "question : " + mcq.question;
  prompt += " options :";
  for (size_t i = 0; i < mcq.options.size(); ++i) {
    prompt += " ( ";
    prompt += OptionLetter(static_cast<int>(i));
    prompt += " ) " + mcq.options[i];
  }
  prompt += " answer :";
  return prompt;
}

std::string FormatQuestionPrompt(const Mcq& mcq) {
  return "question : " + mcq.question + " answer :";
}

std::string McqGoldResponse(const Mcq& mcq) {
  return mcq.options[static_cast<size_t>(mcq.correct)];
}

char OptionLetter(int index) {
  CHECK_GE(index, 0);
  CHECK_LT(index, 4);
  return static_cast<char>('a' + index);
}

}  // namespace infuserki::kg
