#include "model/batched_session.h"

#include "obs/metrics.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace infuserki::model {
namespace {

/// Inference-engine metrics. Tokens count once per forwarded position:
/// rows of >1 token are prefill, single-token rows decode. A step with any
/// prefill row times as prefill, an all-decode step as a decode step; the
/// reuse counter tallies cached rows each new position attended to instead
/// of recomputing.
struct EngineMetrics {
  obs::Counter* sessions;
  obs::Counter* prefill_tokens;
  obs::Counter* decode_tokens;
  obs::Counter* cached_rows_reused;
  obs::Counter* batched_steps;
  obs::Counter* batched_rows;
  obs::Histogram* prefill_seconds;
  obs::Histogram* decode_step_seconds;
  obs::Histogram* batched_step_seconds;
};

EngineMetrics& Metrics() {
  // Locking contract: resolved once under the magic-static guard; the
  // struct is immutable afterwards and all metric updates are relaxed
  // atomics, so concurrent sessions (parallel MCQ fan-out, the serving
  // scheduler) publish without any lock.
  static EngineMetrics* metrics = [] {
    obs::Registry& registry = obs::Registry::Get();
    return new EngineMetrics{
        registry.GetCounter("engine/sessions"),
        registry.GetCounter("engine/prefill_tokens"),
        registry.GetCounter("engine/decode_tokens"),
        registry.GetCounter("engine/cached_rows_reused"),
        registry.GetCounter("engine/batched_steps"),
        registry.GetCounter("engine/batched_rows"),
        registry.GetHistogram("engine/prefill_seconds"),
        registry.GetHistogram("engine/decode_step_seconds"),
        registry.GetHistogram("engine/batched_step_seconds")};
  }();
  return *metrics;
}

}  // namespace

BatchedDecodeSession::BatchedDecodeSession(const TransformerLM& lm,
                                           size_t max_rows,
                                           const ForwardOptions& options)
    : lm_(lm),
      options_(options),
      cache_(lm.config().num_layers, max_rows),
      in_use_(max_rows, false) {
  CHECK_GT(max_rows, size_t{0});
  CHECK(options_.trace == nullptr)
      << "trace recording is not supported on the cached path";
  CHECK(!HasSequenceStatefulHook(options_))
      << "sequence-stateful hooks (Infuser-gated adapters) cannot take the "
         "KV-cached path; use the full-recompute generation entry points";
  Metrics().sessions->Increment();
}

size_t BatchedDecodeSession::AcquireSlot() {
  CHECK(HasFreeSlot()) << "all " << max_rows() << " batch slots are in use";
  for (size_t slot = 0; slot < in_use_.size(); ++slot) {
    if (!in_use_[slot]) {
      in_use_[slot] = true;
      ++active_rows_;
      return slot;
    }
  }
  CHECK(false) << "free-slot accounting out of sync";
  return 0;
}

void BatchedDecodeSession::ReleaseSlot(size_t slot) {
  CHECK_LT(slot, in_use_.size());
  CHECK(in_use_[slot]) << "slot " << slot << " is not acquired";
  cache_.ResetSlot(slot);
  in_use_[slot] = false;
  --active_rows_;
}

BatchedDecodeSession::SlotSnapshot BatchedDecodeSession::Snapshot(
    size_t slot) const {
  CHECK_LT(slot, in_use_.size());
  CHECK(in_use_[slot]);
  SlotSnapshot snapshot;
  snapshot.tokens = cache_.tokens(slot);
  snapshot.prefix_rows = cache_.prefix_rows(slot);
  size_t layers = cache_.num_layers();
  snapshot.keys.reserve(layers);
  snapshot.values.reserve(layers);
  // Tensor copies share storage; pages are append-only (every extension
  // replaces the handle with a fresh ConcatRows result), so the snapshot
  // stays frozen at this boundary no matter how the slot decodes on.
  for (size_t l = 0; l < layers; ++l) {
    const LayerKv* page = cache_.layer(l, slot);
    snapshot.keys.push_back(page->k);
    snapshot.values.push_back(page->v);
  }
  return snapshot;
}

void BatchedDecodeSession::Restore(size_t slot,
                                   const SlotSnapshot& snapshot) {
  CHECK_LT(slot, in_use_.size());
  CHECK(in_use_[slot]);
  CHECK_EQ(cache_.tokens(slot), size_t{0})
      << "Restore requires a fresh slot";
  CHECK(!cache_.seeded(slot));
  CHECK_EQ(snapshot.keys.size(), cache_.num_layers());
  CHECK_EQ(snapshot.values.size(), cache_.num_layers());
  cache_.SeedPrefix(options_.prefix, slot);
  CHECK_EQ(cache_.prefix_rows(slot), snapshot.prefix_rows)
      << "snapshot was taken under different prefix tuning";
  for (size_t l = 0; l < cache_.num_layers(); ++l) {
    LayerKv* page = cache_.layer(l, slot);
    page->k = snapshot.keys[l];
    page->v = snapshot.values[l];
  }
  cache_.AdvanceTokens(snapshot.tokens, slot);
}

std::vector<tensor::Tensor> BatchedDecodeSession::Step(
    const std::vector<RowInput>& rows) {
  CHECK(!rows.empty());
  EngineMetrics& metrics = Metrics();
  util::Stopwatch watch;
  tensor::NoGradGuard no_grad;
  bool any_prefill = false;
  size_t reused = 0;
  for (const RowInput& row : rows) {
    CHECK_LT(row.slot, in_use_.size());
    CHECK(in_use_[row.slot]) << "Step row uses unacquired slot " << row.slot;
    any_prefill = any_prefill || row.tokens.size() > 1;
    reused += (cache_.prefix_rows(row.slot) + cache_.tokens(row.slot)) *
              row.tokens.size();
  }
  // Partition rows by pinned adapter version (first-appearance order): the
  // packed forward applies one adapter to every row, so rows pinned to
  // different versions must run in separate forwards to stay bit-exact for
  // their own version. The common cases — no adapters, or everyone on the
  // current version — collapse to a single packed forward.
  std::vector<const PositionWiseAdapter*> group_adapters;
  std::vector<std::vector<size_t>> group_rows;
  for (size_t r = 0; r < rows.size(); ++r) {
    size_t g = 0;
    while (g < group_adapters.size() && group_adapters[g] != rows[r].adapter) {
      ++g;
    }
    if (g == group_adapters.size()) {
      group_adapters.push_back(rows[r].adapter);
      group_rows.emplace_back();
    }
    group_rows[g].push_back(r);
  }
  std::vector<tensor::Tensor> per_row(rows.size());
  for (size_t g = 0; g < group_adapters.size(); ++g) {
    std::vector<TransformerLM::BatchRow> batch;
    batch.reserve(group_rows[g].size());
    for (size_t r : group_rows[g]) {
      batch.push_back(TransformerLM::BatchRow{&rows[r].tokens, rows[r].slot});
    }
    PositionWiseAdapterHook hook(group_adapters[g]);
    ForwardOptions options = options_;
    if (group_adapters[g] != nullptr) {
      CHECK(options_.hook == nullptr)
          << "a row's pinned adapter cannot combine with session hooks";
      options = hook.Options();
      options.prefix = options_.prefix;
    }
    tensor::Tensor packed = lm_.LogitsBatched(batch, &cache_, options);
    if (batch.size() == 1) {
      per_row[group_rows[g][0]] = packed;
      continue;
    }
    size_t offset = 0;
    for (size_t r : group_rows[g]) {
      per_row[r] = tensor::SliceRows(packed, offset, rows[r].tokens.size());
      offset += rows[r].tokens.size();
    }
  }
  double seconds = watch.ElapsedSeconds();
  for (const RowInput& row : rows) {
    if (row.tokens.size() == 1) {
      metrics.decode_tokens->Increment();
    } else {
      metrics.prefill_tokens->Increment(row.tokens.size());
    }
  }
  metrics.cached_rows_reused->Increment(reused);
  (any_prefill ? metrics.prefill_seconds : metrics.decode_step_seconds)
      ->Record(seconds);
  metrics.batched_steps->Increment();
  metrics.batched_rows->Increment(rows.size());
  metrics.batched_step_seconds->Record(seconds);
  return per_row;
}

}  // namespace infuserki::model
