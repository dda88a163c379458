#ifndef INFUSERKI_KG_GRAPH_H_
#define INFUSERKI_KG_GRAPH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace infuserki::kg {

/// An entity node. `name` is the unique surface form used in text.
struct Entity {
  int id = -1;
  std::string name;
};

/// A relation type. `surface` is the natural-language rendering used by
/// templates (e.g. relation "has_finding_site" -> surface "finding site").
struct Relation {
  int id = -1;
  std::string name;
  std::string surface;
};

/// A directed labeled edge <head, relation, tail>.
struct Triplet {
  int head = -1;
  int relation = -1;
  int tail = -1;

  bool operator==(const Triplet& other) const {
    return head == other.head && relation == other.relation &&
           tail == other.tail;
  }
};

/// In-memory triple store with the lookups the experiments need: unique-tail
/// queries for QA answers and per-relation tail pools for distractor
/// sampling.
class KnowledgeGraph {
 public:
  KnowledgeGraph() = default;

  /// Adds (or finds) an entity by name; returns its id.
  int AddEntity(const std::string& name);

  /// Adds (or finds) a relation; returns its id. Re-adding with a different
  /// surface keeps the first surface.
  int AddRelation(const std::string& name, const std::string& surface);

  /// Appends a triplet; duplicate (head, relation) pairs are rejected so
  /// every question has a unique gold answer.
  util::Status AddTriplet(int head, int relation, int tail);

  const Entity& entity(int id) const;
  const Relation& relation(int id) const;
  const std::vector<Triplet>& triplets() const { return triplets_; }

  size_t num_entities() const { return entities_.size(); }
  size_t num_relations() const { return relations_.size(); }
  size_t num_triplets() const { return triplets_.size(); }

  /// All distinct entities appearing as tails of `relation` — the type-
  /// plausible distractor pool for that relation's questions.
  const std::vector<int>& TailPool(int relation) const;

 private:
  std::vector<Entity> entities_;
  std::vector<Relation> relations_;
  std::vector<Triplet> triplets_;
  std::unordered_map<std::string, int> entity_by_name_;
  std::unordered_map<std::string, int> relation_by_name_;
  // (head, relation) -> tail, packed key head * kKeyStride + relation.
  std::unordered_map<int64_t, int> tail_by_head_rel_;
  std::vector<std::vector<int>> tail_pools_;        // by relation id
  std::vector<std::vector<char>> tail_pool_seen_;   // membership bitmap

  // Ceiling on entity/relation ids imposed by the packed (head, relation)
  // key: ids at or above the stride would collide in the unique-tail index.
  static constexpr int64_t kMaxEntities = 1 << 20;
  static constexpr int64_t kKeyStride = kMaxEntities;
};

}  // namespace infuserki::kg

#endif  // INFUSERKI_KG_GRAPH_H_
