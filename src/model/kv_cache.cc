#include "model/kv_cache.h"

#include "util/logging.h"

namespace infuserki::model {

void KvCache::SeedPrefix(const PrefixKv* prefix, size_t slot_index) {
  Slot& slot = slots_.at(slot_index);
  CHECK(!slot.seeded);
  CHECK_EQ(slot.tokens, size_t{0});
  slot.seeded = true;
  if (prefix == nullptr || prefix->prefix_len == 0) return;
  CHECK_EQ(prefix->keys.size(), num_layers_);
  CHECK_EQ(prefix->values.size(), num_layers_);
  slot.prefix_rows = prefix->prefix_len;
  for (size_t l = 0; l < num_layers_; ++l) {
    slot.layers[l].k = prefix->keys[l].Detach();
    slot.layers[l].v = prefix->values[l].Detach();
  }
}

void KvCache::ResetSlot(size_t slot_index) {
  Slot& slot = slots_.at(slot_index);
  for (LayerKv& layer : slot.layers) {
    layer.k = tensor::Tensor();
    layer.v = tensor::Tensor();
  }
  slot.prefix_rows = 0;
  slot.tokens = 0;
  slot.seeded = false;
}

}  // namespace infuserki::model
