#ifndef INFUSERKI_MODEL_SERVE_ADAPTER_H_
#define INFUSERKI_MODEL_SERVE_ADAPTER_H_

#include <cstddef>
#include <vector>

#include "model/hooks.h"
#include "tensor/tensor.h"

namespace infuserki::model {

/// One step of the knowledge-adapter chain (Eqs. 1-2), shared by the
/// training-side core::KnowledgeAdapterStack and the serving-side
/// PositionWiseAdapterHook so both run the same ops in the same order:
///   combined = chain.defined() ? input + chain : input          (Eq. 1)
///   H_A^l    = Relu(combined @ W_down^T + b_down) @ W_up^T + b_up (Eq. 2)
/// `chain` is H_A^{l-1} (undefined at the chain's first adapted layer).
/// Every op is row-wise, so a packed batch of sequences gets, row for
/// row, the result of running each sequence alone.
tensor::Tensor AdapterChainStep(const tensor::Tensor& input,
                                const tensor::Tensor& chain,
                                const tensor::Tensor& down_weight,
                                const tensor::Tensor& down_bias,
                                const tensor::Tensor& up_weight,
                                const tensor::Tensor& up_bias);

/// Immutable position-wise knowledge-adapter weights for serving.
///
/// This is the inference-side export of core::KnowledgeAdapterStack in its
/// ungated (w/o-Ro, use_infuser = false) form: per adapted layer a
/// bottleneck down/up projection pair, chained across layers by
/// PositionWiseAdapterHook exactly like the training-side stack chains
/// adapter outputs (DESIGN.md §12). The gated form pools Mean(H_P^l) over
/// the whole sequence and therefore cannot take the KV-cached path;
/// exports of gated stacks are rejected at the source.
///
/// All members are set at construction and never mutated, so one instance
/// may be shared freely across threads (the swap protocol publishes
/// shared_ptr<const PositionWiseAdapter> snapshots).
class PositionWiseAdapter {
 public:
  /// Deep-copied weights for one adapted layer. Tensors are detached
  /// (requires_grad = false) and owned exclusively by this adapter.
  struct LayerWeights {
    int layer = 0;               // 0-based transformer layer index
    tensor::Tensor down_weight;  // [bottleneck, model_dim]
    tensor::Tensor down_bias;    // [bottleneck]
    tensor::Tensor up_weight;    // [model_dim, bottleneck]
    tensor::Tensor up_bias;      // [model_dim]
  };

  /// `layers` must be sorted by strictly ascending, non-negative layer
  /// index with consistent shapes; CHECK-fails otherwise (registry loads
  /// validate before constructing). Whether the layers exist in a given
  /// model is checked where the adapter meets one
  /// (serve::InferenceServer::SwapAdapters).
  PositionWiseAdapter(size_t model_dim, size_t bottleneck,
                      AdapterAttachment attachment,
                      std::vector<LayerWeights> layers);

  size_t model_dim() const { return model_dim_; }
  size_t bottleneck() const { return bottleneck_; }
  AdapterAttachment attachment() const { return attachment_; }
  const std::vector<LayerWeights>& layers() const { return layers_; }

  /// The weights adapting `layer`, or nullptr for an unadapted layer.
  const LayerWeights* Find(int layer) const;

 private:
  size_t model_dim_;
  size_t bottleneck_;
  AdapterAttachment attachment_;
  std::vector<LayerWeights> layers_;
};

/// SublayerHook that runs a PositionWiseAdapter through the ordinary
/// ForwardOptions plumbing — on the full-recompute path and on the
/// batched session, which serves every pinned adapter version through one
/// of these (DESIGN.md §12). Position-wise (SequenceStateful() stays
/// false). Holds the per-forward chain H_A^{l-1}: one hook instance per
/// concurrent forward, not shared across threads.
class PositionWiseAdapterHook : public SublayerHook {
 public:
  /// `adapter` may be nullptr (base model: no deltas, empty Options()).
  /// Not owned; must outlive the hook.
  explicit PositionWiseAdapterHook(const PositionWiseAdapter* adapter)
      : adapter_(adapter) {}

  void BeginForward() override { chain_ = tensor::Tensor(); }

  /// Adapter delta for `layer` on the adapter's attachment sublayer
  /// (undefined elsewhere and for unadapted layers, which leave the chain
  /// untouched), advancing the chain.
  tensor::Tensor Delta(AdapterAttachment sublayer, int layer,
                       const tensor::Tensor& input) override;

  /// ForwardOptions wired to this hook (empty options when constructed
  /// with a null adapter).
  ForwardOptions Options();

 private:
  const PositionWiseAdapter* adapter_;
  tensor::Tensor chain_;  // H_A^{l-1} of the current forward
};

}  // namespace infuserki::model

#endif  // INFUSERKI_MODEL_SERVE_ADAPTER_H_
