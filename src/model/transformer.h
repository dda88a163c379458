#ifndef INFUSERKI_MODEL_TRANSFORMER_H_
#define INFUSERKI_MODEL_TRANSFORMER_H_

#include <functional>
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

  /// Full-sequence residual-stream update for layer `layer_index`
  /// (prefix-tuning rows, if any, are concatenated from `options.prefix`).
  tensor::Tensor Forward(const tensor::Tensor& x, int layer_index,
                         const ForwardOptions& options) const;

  /// Ragged batched cached update. `x` is the packed batch
  /// [sum(row_lens), D] — row r's new positions occupy the `row_lens[r]`
  /// consecutive rows starting at offset sum(row_lens[0..r)). Every
  /// position-wise sublayer (norms, projections, SwiGLU, hook deltas,
  /// residuals) runs on the packed tensor directly, while attention runs
  /// per row against `row_kv[r]`, that row's cached K/V page: the new rows
  /// are appended and the cached rows (prefix-tuning rows included) form
  /// an always-visible prefix. Row for row bit-identical to the
  /// full-sequence Forward (DESIGN.md §11). The hooks in `options` see
  /// the packed sublayer inputs; `options.prefix` is not read here (the
  /// pages were seeded with it).
  tensor::Tensor ForwardBatched(const tensor::Tensor& x,
                                const std::vector<size_t>& row_lens,
                                const std::vector<LayerKv*>& row_kv,
                                int layer_index,
                                const ForwardOptions& options) const;

  tensor::Linear& wq() { return wq_; }
  tensor::Linear& wk() { return wk_; }
  tensor::Linear& wv() { return wv_; }
  tensor::Linear& wo() { return wo_; }
  tensor::Linear& ffn_gate() { return ffn_gate_; }
  tensor::Linear& ffn_up() { return ffn_up_; }
  tensor::Linear& ffn_down() { return ffn_down_; }

 private:
  /// Attention over the layer's projected q/k/v -> [rows of q, D]; the one
  /// step in which Forward and ForwardBatched differ.
  using AttendFn = std::function<tensor::Tensor(
      const tensor::Tensor& q, const tensor::Tensor& k,
      const tensor::Tensor& v)>;

  /// The block body both forwards share: every sublayer, hook delta and
  /// residual, with attention delegated to `attend`.
  tensor::Tensor Block(const tensor::Tensor& x, int layer_index,
                       const ForwardOptions& options,
                       const AttendFn& attend) const;

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

  /// Final-norm hidden states for `tokens` -> [T, D].
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
  TransformerConfig config_;
  tensor::Embedding token_emb_;
  tensor::Embedding pos_emb_;
  std::vector<std::unique_ptr<TransformerLayer>> layers_;
  tensor::Tensor final_norm_weight_;
};

}  // namespace infuserki::model

#endif  // INFUSERKI_MODEL_TRANSFORMER_H_
