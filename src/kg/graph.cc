#include "kg/graph.h"

#include "util/logging.h"

namespace infuserki::kg {

int KnowledgeGraph::AddEntity(const std::string& name) {
  auto it = entity_by_name_.find(name);
  if (it != entity_by_name_.end()) return it->second;
  int id = static_cast<int>(entities_.size());
  entities_.push_back({id, name});
  entity_by_name_[name] = id;
  return id;
}

int KnowledgeGraph::AddRelation(const std::string& name,
                                const std::string& surface) {
  auto it = relation_by_name_.find(name);
  if (it != relation_by_name_.end()) return it->second;
  int id = static_cast<int>(relations_.size());
  relations_.push_back({id, name, surface});
  relation_by_name_[name] = id;
  tail_pools_.emplace_back();
  tail_pool_seen_.emplace_back();
  return id;
}

util::Status KnowledgeGraph::AddTriplet(int head, int relation, int tail) {
  if (head < 0 || static_cast<size_t>(head) >= entities_.size() ||
      tail < 0 || static_cast<size_t>(tail) >= entities_.size()) {
    return util::Status::InvalidArgument("entity id out of range");
  }
  if (relation < 0 || static_cast<size_t>(relation) >= relations_.size()) {
    return util::Status::InvalidArgument("relation id out of range");
  }
  int64_t key = static_cast<int64_t>(head) * kKeyStride + relation;
  auto [it, inserted] = tail_by_head_rel_.emplace(key, tail);
  (void)it;
  if (!inserted) {
    return util::Status::AlreadyExists(
        "duplicate (head, relation): " + entities_[head].name + " / " +
        relations_[relation].name);
  }
  triplets_.push_back({head, relation, tail});
  auto& seen = tail_pool_seen_[relation];
  if (seen.size() <= static_cast<size_t>(tail)) {
    seen.resize(entities_.size(), 0);
  }
  if (seen.size() > static_cast<size_t>(tail) && !seen[tail]) {
    seen[tail] = 1;
    tail_pools_[relation].push_back(tail);
  }
  return util::Status::OK();
}

const Entity& KnowledgeGraph::entity(int id) const {
  CHECK_GE(id, 0);
  CHECK_LT(static_cast<size_t>(id), entities_.size());
  return entities_[static_cast<size_t>(id)];
}

const Relation& KnowledgeGraph::relation(int id) const {
  CHECK_GE(id, 0);
  CHECK_LT(static_cast<size_t>(id), relations_.size());
  return relations_[static_cast<size_t>(id)];
}

const std::vector<int>& KnowledgeGraph::TailPool(int relation) const {
  CHECK_GE(relation, 0);
  CHECK_LT(static_cast<size_t>(relation), tail_pools_.size());
  return tail_pools_[static_cast<size_t>(relation)];
}

}  // namespace infuserki::kg
