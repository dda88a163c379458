#ifndef INFUSERKI_KG_TEMPLATES_H_
#define INFUSERKI_KG_TEMPLATES_H_

#include <array>
#include <string>
#include <unordered_map>

#include "kg/graph.h"

namespace infuserki::kg {

/// Number of QA templates per relation (T1..T5). T1 and T2 are "seen"
/// (used for training); T3..T5 are held out to measure generality, exactly
/// as in the paper's F1_T1..F1_T5 metrics.
inline constexpr int kNumTemplates = 5;
inline constexpr int kNumSeenTemplates = 2;

/// The per-relation surface forms produced by the (substituted) GPT-4
/// template generation step of Appendix A.1. `[S]` marks the subject and
/// `[O]` the object placeholder.
struct RelationTemplates {
  std::array<std::string, kNumTemplates> qa;  // answer is the object
  std::string yes_no;                         // yes/no question about [S],[O]
  std::string statement;                      // declarative knowledge fact
};

/// Deterministic template generator plus instantiation helpers.
///
/// Substitution note (DESIGN.md): the paper prompts GPT-4 for five unique
/// question templates and one knowledge statement per relation. We generate
/// them from phrase banks instead, with the bank variant chosen by a hash of
/// the relation name so different relations receive different phrasings.
class TemplateEngine {
 public:
  TemplateEngine() = default;

  /// Generic templates for a relation (pure function of the relation name
  /// and surface).
  static RelationTemplates Generate(const Relation& relation);

  /// Templates for `relation`, generated and memoized on first use.
  const RelationTemplates& For(const Relation& relation) const;

  /// Instantiates QA template `template_id` (1-based, 1..5) for a triplet.
  /// The gold answer is the tail entity's name.
  std::string Question(const KnowledgeGraph& kg, const Triplet& triplet,
                       int template_id) const;

  /// Yes/no question; `tail_override` (entity id, or -1) substitutes a
  /// different object to produce negative samples.
  std::string YesNoQuestion(const KnowledgeGraph& kg, const Triplet& triplet,
                            int tail_override = -1) const;

  /// Declarative knowledge statement for a triplet.
  std::string Statement(const KnowledgeGraph& kg,
                        const Triplet& triplet) const;

 private:
  mutable std::unordered_map<int, RelationTemplates> cache_;
};

}  // namespace infuserki::kg

#endif  // INFUSERKI_KG_TEMPLATES_H_
