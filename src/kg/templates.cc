#include "kg/templates.h"

#include <functional>

#include "util/logging.h"
#include "util/string_util.h"

namespace infuserki::kg {
namespace {

// Three phrasing variants per template slot; the variant used by a relation
// is chosen by hashing the relation name, giving GPT-4-like diversity across
// relations while staying deterministic.
constexpr int kVariants = 3;

const char* const kQaBank[kNumTemplates][kVariants] = {
    {
        "what is the {R} of [S] ?",
        "what serves as the {R} of [S] ?",
        "which entity is the {R} of [S] ?",
    },
    {
        "identify the {R} of [S] .",
        "name the {R} of [S] .",
        "state the {R} of [S] .",
    },
    {
        "the {R} of [S] is what ?",
        "[S] has what {R} ?",
        "[S] has which {R} ?",
    },
    {
        "tell me the {R} associated with [S] .",
        "give the {R} linked to [S] .",
        "provide the {R} connected with [S] .",
    },
    {
        "regarding [S] , what is its {R} ?",
        "for [S] , which entity acts as its {R} ?",
        "concerning [S] , what is the {R} ?",
    },
};

const char* const kYesNoBank[kVariants] = {
    "is [O] the {R} of [S] ?",
    "does [S] have [O] as its {R} ?",
    "would [O] be the {R} of [S] ?",
};

const char* const kStatementBank[kVariants] = {
    "the {R} of [S] is [O] .",
    "[S] has [O] as its {R} .",
    "for [S] the {R} is [O] .",
};

size_t VariantFor(const std::string& relation_name, int slot) {
  std::hash<std::string> hasher;
  return (hasher(relation_name) + static_cast<size_t>(slot) * 2654435761u) %
         kVariants;
}

std::string Instantiate(const std::string& tmpl, const std::string& subject,
                        const std::string& object) {
  std::string out = util::ReplaceAll(tmpl, "[S]", subject);
  out = util::ReplaceAll(out, "[O]", object);
  return out;
}

}  // namespace

RelationTemplates TemplateEngine::Generate(const Relation& relation) {
  RelationTemplates out;
  for (int slot = 0; slot < kNumTemplates; ++slot) {
    const char* raw = kQaBank[slot][VariantFor(relation.name, slot)];
    out.qa[static_cast<size_t>(slot)] =
        util::ReplaceAll(raw, "{R}", relation.surface);
  }
  out.yes_no = util::ReplaceAll(
      kYesNoBank[VariantFor(relation.name, kNumTemplates)], "{R}",
      relation.surface);
  out.statement = util::ReplaceAll(
      kStatementBank[VariantFor(relation.name, kNumTemplates + 1)], "{R}",
      relation.surface);
  return out;
}

const RelationTemplates& TemplateEngine::For(const Relation& relation) const {
  auto it = cache_.find(relation.id);
  if (it == cache_.end()) {
    it = cache_.emplace(relation.id, Generate(relation)).first;
  }
  return it->second;
}

std::string TemplateEngine::Question(const KnowledgeGraph& kg,
                                     const Triplet& triplet,
                                     int template_id) const {
  CHECK_GE(template_id, 1);
  CHECK_LE(template_id, kNumTemplates);
  const RelationTemplates& templates = For(kg.relation(triplet.relation));
  return Instantiate(templates.qa[static_cast<size_t>(template_id - 1)],
                     kg.entity(triplet.head).name,
                     kg.entity(triplet.tail).name);
}

std::string TemplateEngine::YesNoQuestion(const KnowledgeGraph& kg,
                                          const Triplet& triplet,
                                          int tail_override) const {
  const RelationTemplates& templates = For(kg.relation(triplet.relation));
  int tail = tail_override >= 0 ? tail_override : triplet.tail;
  return Instantiate(templates.yes_no, kg.entity(triplet.head).name,
                     kg.entity(tail).name);
}

std::string TemplateEngine::Statement(const KnowledgeGraph& kg,
                                      const Triplet& triplet) const {
  const RelationTemplates& templates = For(kg.relation(triplet.relation));
  return Instantiate(templates.statement, kg.entity(triplet.head).name,
                     kg.entity(triplet.tail).name);
}

}  // namespace infuserki::kg
