#ifndef INFUSERKI_MODEL_TRANSFORMER_H_
#define INFUSERKI_MODEL_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "model/config.h"
#include "model/hooks.h"
#include "model/kv_cache.h"
#include "tensor/nn.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace infuserki::model {

/// One pre-norm transformer block: x += Attn(norm1(x)); x += FFN(norm2(x))
/// with SwiGLU FFN. Exposes its projections so PEFT methods can attach
/// LoRA deltas, and routes hook deltas per ForwardOptions.
class TransformerLayer : public tensor::Module {
 public:
  TransformerLayer(const TransformerConfig& config, util::Rng* rng);

  /// Residual-stream update for layer `layer_index` over a ragged batch.
  /// `x` is the packed batch [sum(row_lens), D] — row r's new positions
  /// occupy the `row_lens[r]` consecutive rows starting at offset
  /// sum(row_lens[0..r)). Every position-wise sublayer (norms,
  /// projections, SwiGLU, hook deltas, residuals) runs on the packed
  /// tensor directly, while attention runs per row against `row_kv[r]`,
  /// that row's K/V page: the new rows are appended and the page's earlier
  /// rows (prefix-tuning rows included) form an always-visible prefix. A
  /// whole sequence is the one-row case over a page that holds at most the
  /// prefix rows (DESIGN.md §11). The hooks in `options` see the packed
  /// sublayer inputs; `options.prefix` is not read here (the pages carry
  /// it).
  tensor::Tensor Forward(const tensor::Tensor& x,
                         const std::vector<size_t>& row_lens,
                         const std::vector<LayerKv*>& row_kv, int layer_index,
                         const ForwardOptions& options) const;

  tensor::Linear& wq() { return wq_; }
  tensor::Linear& wk() { return wk_; }
  tensor::Linear& wv() { return wv_; }
  tensor::Linear& wo() { return wo_; }
  tensor::Linear& ffn_gate() { return ffn_gate_; }
  tensor::Linear& ffn_up() { return ffn_up_; }
  tensor::Linear& ffn_down() { return ffn_down_; }

 private:
  size_t num_heads_;
  tensor::Tensor norm1_weight_;
  tensor::Tensor norm2_weight_;
  tensor::Linear wq_;
  tensor::Linear wk_;
  tensor::Linear wv_;
  tensor::Linear wo_;
  tensor::Linear ffn_gate_;  // W1 of SwiGLU
  tensor::Linear ffn_up_;    // W3
  tensor::Linear ffn_down_;  // W2
};

/// Decoder-only language model with tied input/output embeddings, learned
/// positions, and per-layer hook points (see hooks.h). This is the
/// simulator-scale stand-in for the paper's LLaMa-2-7B base model.
class TransformerLM : public tensor::Module {
 public:
  TransformerLM(const TransformerConfig& config, util::Rng* rng);

  /// Final-norm hidden states for `tokens` -> [T, D]: the whole sequence
  /// as one row over throwaway pages seeded with `options.prefix` (not
  /// detached, so prefix-tuning gradients reach it). Records a graph when
  /// grad mode is on; sequence-stateful hooks and `trace` are allowed.
  tensor::Tensor Hidden(const std::vector<int>& tokens,
                        const ForwardOptions& options = {}) const;

  /// Token logits -> [T, V] (tied output head: h @ E^T).
  tensor::Tensor Logits(const std::vector<int>& tokens,
                        const ForwardOptions& options = {}) const;

  /// One row of a ragged batched forward: the row's NEW tokens plus the
  /// KvCache slot holding its previously cached K/V pages. Prefill rows
  /// carry whole prompts, decode rows carry a single token — mixed freely
  /// in one batch.
  struct BatchRow {
    const std::vector<int>* tokens = nullptr;
    size_t slot = 0;
  };

  /// Ragged batched cached forward: every row's new tokens run at
  /// positions cache->tokens(row.slot) .. in ONE packed forward, appending
  /// each row's new K/V rows to its own slot. Returns packed final-norm
  /// hidden states [sum_T, D], rows in batch order (slice with
  /// tensor::SliceRows). Each output row is bit-exact with the matching
  /// rows of the full-sequence Hidden over that row's whole sequence
  /// (DESIGN.md §11). Inference-only; call under NoGradGuard. Slots must
  /// be distinct. `options` applies to EVERY row: its hooks see the packed
  /// sublayer inputs and must be position-wise (SequenceStateful() hooks
  /// and `trace` are rejected), and a slot's first forward seeds it with
  /// `options.prefix`.
  tensor::Tensor HiddenBatched(const std::vector<BatchRow>& rows,
                               KvCache* cache,
                               const ForwardOptions& options = {}) const;

  /// HiddenBatched through the tied output head -> [sum_T, V].
  tensor::Tensor LogitsBatched(const std::vector<BatchRow>& rows,
                               KvCache* cache,
                               const ForwardOptions& options = {}) const;

  /// Mean next-token cross entropy over positions >= loss_start (0 = whole
  /// sequence). Position t predicts tokens[t + 1]; with loss_start = p only
  /// targets at indices > p contribute, which restricts supervision to the
  /// response part of an instruction sample.
  tensor::Tensor NextTokenLoss(const std::vector<int>& tokens,
                               size_t loss_start = 0,
                               const ForwardOptions& options = {}) const;

  const TransformerConfig& config() const { return config_; }
  TransformerLayer& layer(size_t i) { return *layers_[i]; }
  const tensor::Embedding& token_embedding() const { return token_emb_; }

 private:
  /// The one forward body behind Hidden and HiddenBatched: embeds the
  /// packed `tokens` at `positions`, runs every layer with row r's
  /// attention over `pages[l][r]` (row r has `row_lens[r]` new tokens),
  /// and applies the final norm. The front doors hold the preconditions.
  tensor::Tensor PackedHidden(
      const std::vector<int>& tokens, const std::vector<int>& positions,
      const std::vector<size_t>& row_lens,
      const std::vector<std::vector<LayerKv*>>& pages,
      const ForwardOptions& options) const;

  TransformerConfig config_;
  tensor::Embedding token_emb_;
  tensor::Embedding pos_emb_;
  std::vector<std::unique_ptr<TransformerLayer>> layers_;
  tensor::Tensor final_norm_weight_;
};

}  // namespace infuserki::model

#endif  // INFUSERKI_MODEL_TRANSFORMER_H_
