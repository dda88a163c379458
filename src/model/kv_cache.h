#ifndef INFUSERKI_MODEL_KV_CACHE_H_
#define INFUSERKI_MODEL_KV_CACHE_H_

#include <cstddef>
#include <vector>

#include "model/hooks.h"
#include "tensor/tensor.h"

namespace infuserki::model {

/// Key/value rows accumulated for one transformer layer. `k` and `v` are
/// [rows, D] (undefined while empty); rows = prefix-tuning rows (if any)
/// followed by one row per cached token position, in position order.
struct LayerKv {
  tensor::Tensor k;
  tensor::Tensor v;

  size_t rows() const { return k.defined() ? k.dim(0) : 0; }
};

/// Per-layer attention key/value cache for incremental decoding, organised
/// as a pool of independent slots.
///
/// A slot is one logical sequence's set of K/V pages: `num_layers` LayerKv
/// pages plus a cached-token count. BatchedDecodeSession acquires one slot
/// per in-flight sequence (a one-slot pool for single-sequence decode) and
/// the ragged batched forward appends each row's new K/V rows to that
/// row's slot only — slots never share pages, so retiring or resetting one
/// row cannot disturb another.
///
/// Grown by TransformerLM::LogitsBatched (each forward appends its new K/V
/// rows). Rows are plain detached values: the cache is only ever filled
/// under NoGradGuard.
///
/// Concurrency contract (DESIGN.md §13): a KvCache is confined to the one
/// thread that owns its session (scheduler thread in serving, caller thread
/// elsewhere), so it is intentionally unsynchronized — no mutex, no TSA
/// capabilities. Page tensors shared out through slot snapshots are
/// immutable (appends always produce fresh tensors), which is
/// what makes the cross-thread PrefixCache sharing in serve/ safe.
class KvCache {
 public:
  explicit KvCache(size_t num_layers, size_t num_slots)
      : num_layers_(num_layers), slots_(num_slots) {
    for (Slot& slot : slots_) slot.layers.resize(num_layers);
  }

  size_t num_layers() const { return num_layers_; }
  size_t num_slots() const { return slots_.size(); }

  /// Token positions cached so far in `slot` (excludes prefix-tuning rows).
  size_t tokens(size_t slot) const { return at(slot).tokens; }

  /// Prefix-tuning rows per layer in `slot` (0 without prefix tuning).
  size_t prefix_rows(size_t slot) const { return at(slot).prefix_rows; }

  LayerKv* layer(size_t i, size_t slot) {
    return &slots_.at(slot).layers.at(i);
  }
  const LayerKv* layer(size_t i, size_t slot) const {
    return &slots_.at(slot).layers.at(i);
  }

  bool seeded(size_t slot) const { return at(slot).seeded; }

  /// One-time seeding of `slot` with prefix-tuning K/V rows (nullptr when
  /// the forward has no prefix). Must run before the slot's first
  /// incremental forward so the prefix rows occupy the head of every
  /// layer's page.
  void SeedPrefix(const PrefixKv* prefix, size_t slot);

  /// Bumps `slot`'s cached-token count after a chunked forward appended
  /// `count` rows to every one of its layer pages.
  void AdvanceTokens(size_t count, size_t slot) {
    slots_.at(slot).tokens += count;
  }

  /// Returns `slot` to its pristine state: all pages dropped, token count
  /// zero, unseeded. Used when a batch slot is recycled for a new row.
  void ResetSlot(size_t slot);

 private:
  struct Slot {
    std::vector<LayerKv> layers;
    size_t prefix_rows = 0;
    size_t tokens = 0;
    bool seeded = false;
  };

  const Slot& at(size_t slot) const { return slots_.at(slot); }

  size_t num_layers_;
  std::vector<Slot> slots_;
};

}  // namespace infuserki::model

#endif  // INFUSERKI_MODEL_KV_CACHE_H_
