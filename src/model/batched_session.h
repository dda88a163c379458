#ifndef INFUSERKI_MODEL_BATCHED_SESSION_H_
#define INFUSERKI_MODEL_BATCHED_SESSION_H_

#include <cstddef>
#include <vector>

#include "model/hooks.h"
#include "model/kv_cache.h"
#include "model/serve_adapter.h"
#include "model/transformer.h"

namespace infuserki::model {

/// Cached inference over a pool of concurrent token sequences, decoded
/// together in ragged batched steps. This is the one KV-cached engine:
/// single-sequence decode and MCQ scoring drive a one-slot session
/// (generation.cc), serving drives a wide one (serve/server.cc).
///
/// Each in-flight sequence occupies one KV slot (see KvCache): AcquireSlot
/// checks one out, Step() forwards every participating row's new tokens in
/// ONE packed forward (prefill rows carry whole prompts, decode rows a
/// single token — mixed freely), and ReleaseSlot recycles the slot for the
/// next sequence. Every row of a Step is bit-exact with the full-sequence
/// TransformerLM::Logits over that row's whole sequence (DESIGN.md §7,
/// §11): position-wise sublayers and hook deltas run packed with identical
/// per-row arithmetic and attention runs per row against that row's own
/// K/V page.
///
/// Snapshot()/Restore() save and replant a slot's K/V pages: MCQ scoring
/// replays every option from one prefilled prompt this way, and the
/// serving layer's PrefixCache parks a prefilled prompt boundary to seed
/// later slots without re-running the prefill. A snapshot shares the
/// underlying page storage (pages are never mutated in place — appends
/// always produce fresh tensors), so two in-flight rows restored from the
/// same snapshot share one copy of the prefix K/V until they diverge.
///
/// Sessions are single-threaded and inference-only (all forwards run under
/// NoGradGuard). The session's ForwardOptions (hooks, prefix tuning) apply
/// to every row; sequence-stateful hooks and tracing are rejected — the
/// generation layer routes those to the full-recompute path. A hook is
/// mutated during a forward and must not be shared with a concurrent
/// session or forward. Thread confinement, not locking, is the concurrency
/// contract (DESIGN.md §13): the session and its KV slot pool are owned by
/// exactly one thread (the scheduler thread in serving), so they carry no
/// mutex and no TSA capabilities. SlotSnapshots handed to the PrefixCache
/// are immutable shares; the cache's own mu_ publishes them to other rows.
class BatchedDecodeSession {
 public:
  /// `options` apply to every Step row. `options.trace` must be null and
  /// no hook may be SequenceStateful(). `options` (and any hook / prefix
  /// it points to) must outlive the session.
  BatchedDecodeSession(const TransformerLM& lm, size_t max_rows,
                       const ForwardOptions& options = {});

  size_t max_rows() const { return cache_.num_slots(); }
  size_t active_rows() const { return active_rows_; }
  bool HasFreeSlot() const { return active_rows_ < max_rows(); }

  /// Hard sequence ceiling (the model's positional table size).
  size_t max_tokens() const { return lm_.config().max_seq_len; }

  /// Token positions fed to `slot` so far.
  size_t tokens(size_t slot) const { return cache_.tokens(slot); }

  /// Checks out a free slot (CHECK-fails when none is free; probe with
  /// HasFreeSlot). The slot starts empty: the first Step row on it is a
  /// prefill at position 0 unless Restore() replants saved pages first.
  size_t AcquireSlot();

  /// Returns `slot` to the free pool, dropping its K/V pages.
  void ReleaseSlot(size_t slot);

  /// A slot's per-layer K/V pages at some sequence boundary. Tensors share
  /// storage with the live slot (cheap); `tokens` is the boundary length
  /// and `prefix_rows` the prefix-tuning rows heading every page.
  struct SlotSnapshot {
    std::vector<tensor::Tensor> keys;
    std::vector<tensor::Tensor> values;
    size_t tokens = 0;
    size_t prefix_rows = 0;
  };

  /// Captures `slot`'s current pages. Call at the prompt boundary (right
  /// after the prefill Step) to get a reusable prefix snapshot.
  SlotSnapshot Snapshot(size_t slot) const;

  /// Replants `snapshot` into a freshly acquired (empty) `slot`: the next
  /// Step row on it continues from position snapshot.tokens. The snapshot
  /// must come from a session with the same prefix tuning.
  void Restore(size_t slot, const SlotSnapshot& snapshot);

  /// One participating row of a batched step. `adapter` pins the adapter
  /// version the row was admitted under (nullptr = base model); it must
  /// stay the same for every Step of that row's lifetime so the decoded
  /// stream is bit-exact for ONE version (the swap protocol's epoch
  /// pinning, DESIGN.md §12). It is served through a
  /// PositionWiseAdapterHook, so a row with an adapter needs a session
  /// without hooks of its own. Not owned; the serving layer keeps the
  /// version alive via its shared_ptr pin for as long as the row flies.
  struct RowInput {
    size_t slot = 0;
    std::vector<int> tokens;  // new tokens for this row (>= 1)
    const PositionWiseAdapter* adapter = nullptr;
  };

  /// Runs all rows' new tokens in ragged batched forwards and returns
  /// per-row logits [T_r, V], in `rows` order. Rows must use distinct,
  /// acquired slots. Rows sharing an adapter version run in ONE packed
  /// forward; a step mixing versions runs one forward per distinct version
  /// (first-appearance order), so a hot swap costs at most one extra
  /// forward per step while both generations are in flight.
  std::vector<tensor::Tensor> Step(const std::vector<RowInput>& rows);

 private:
  const TransformerLM& lm_;
  ForwardOptions options_;
  KvCache cache_;
  std::vector<bool> in_use_;
  size_t active_rows_ = 0;
};

}  // namespace infuserki::model

#endif  // INFUSERKI_MODEL_BATCHED_SESSION_H_
