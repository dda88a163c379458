#ifndef INFUSERKI_CORE_ADAPTER_STACK_H_
#define INFUSERKI_CORE_ADAPTER_STACK_H_

#include <memory>
#include <vector>

#include "model/hooks.h"
#include "model/serve_adapter.h"
#include "tensor/nn.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace infuserki::core {

/// Where the adapters attach (Fig. 5 ablation): kFfn, parallel to FFN
/// sublayers (the paper's main design), or kAttention. The same enum the
/// serving-side PositionWiseAdapter records.
using AdapterPlacement = model::AdapterAttachment;

/// Configuration of the knowledge-adapter chain.
struct AdapterStackOptions {
  int first_layer = 1;   // 0-based first adapted layer (paper: 3rd of 32)
  int last_layer = -1;   // inclusive; -1 = deepest layer
  /// d'. The paper uses 10 at d=4096; the simulator's memorization burden
  /// per hidden unit is far higher, so the default scales up.
  size_t bottleneck = 96;
  AdapterPlacement placement = AdapterPlacement::kFfn;
  bool use_infuser = true;   // false = InfuserKI-w/o-Ro (delta always added)
  size_t infuser_hidden = 32;
  /// Slope of the gate sigmoid: r = sigmoid(sharpness * f_In(.)). Values
  /// above 1 make the gate more decisive, driving leakage on known inputs
  /// toward zero; part of the f_In parameterization (Eq. 4).
  float gate_sharpness = 3.0f;
  uint64_t seed = 31;
};

/// The Infuser-guided knowledge adapter chain (§3.3, Fig. 4).
///
/// For each adapted layer l:
///   H~_A^l = H_A^{l-1} + H_P^l                      (Eq. 1)
///   H_A^l  = relu(H~_A^l W_down) W_up               (Eq. 2)
///   r^l    = sigmoid(f_In(Mean(H_P^l)))             (Eq. 4)
///   delta  = r^l * H_A^l                            (Eq. 6 contribution)
/// The chain state H_A^{l-1} starts at zero (Eq. 1 note) and flows through
/// adapted layers only. One Infuser MLP per adapted layer scores how well
/// the base model "knows" the current input from its internal state H_P^l.
///
/// The stack contributes on the `placement` sublayer only; Delta() for the
/// other sublayer returns an undefined tensor and leaves the chain alone.
class KnowledgeAdapterStack : public model::SublayerHook,
                              public tensor::Module {
 public:
  KnowledgeAdapterStack(size_t model_dim, size_t num_layers,
                        const AdapterStackOptions& options);

  // model::SublayerHook:
  void BeginForward() override;
  /// The Infuser gate pools Mean(H_P^l) over every position of the forward
  /// (Eq. 4), so the gated stack is sequence-stateful: its full-sequence
  /// forward is non-causal and the generation layer must use the
  /// full-recompute path for it. Without the Infuser (w/o-Ro ablation) the
  /// delta is row-wise and KV-cached decoding applies.
  bool SequenceStateful() const override { return options_.use_infuser; }
  tensor::Tensor Delta(model::AdapterAttachment sublayer, int layer,
                       const tensor::Tensor& input) override;

  /// True when `layer` carries an adapter.
  bool IsAdapted(int layer) const;

  /// Per-forward infusing scores r^l (post-sigmoid floats) keyed by layer
  /// index, in the order the adapted layers ran. Valid after a forward.
  const std::vector<std::pair<int, float>>& infusing_scores() const {
    return infusing_scores_;
  }

  /// Pre-sigmoid Infuser logits of the current forward as graph tensors
  /// (shape {1} each), for the Infuser BCE loss (Eq. 5).
  const std::vector<tensor::Tensor>& infuser_logits() const {
    return infuser_logits_;
  }

  /// Final adapter output H_A^L of the current forward, [T, D]; used for
  /// relation-classification pooling (Eq. 9). Undefined before a forward.
  const tensor::Tensor& last_adapter_output() const { return chain_; }

  /// Training-time gate override: values >= 0 replace the Infuser score
  /// with a constant for subsequent forwards; negative restores normal
  /// gating. Used by the QA phase to run known-replay samples with the
  /// gate forced open so the adapter learns to be harmless on them.
  void set_gate_override(float value) { gate_override_ = value; }
  float gate_override() const { return gate_override_; }

  /// Parameters of the adapters only (no Infusers).
  std::vector<tensor::Tensor> AdapterParameters() const;

  /// Parameters of the Infuser MLPs only.
  std::vector<tensor::Tensor> InfuserParameters() const;

  /// Deep-copies the adapter weights into an immutable
  /// model::PositionWiseAdapter for publication into a live server
  /// (DESIGN.md §12). Only the ungated (use_infuser = false, w/o-Ro) form
  /// is position-wise; exporting a gated stack returns kFailedPrecondition
  /// because its Mean(H_P^l) pooling cannot take the KV-cached or batched
  /// serving paths. The export shares no storage with the stack, so
  /// training may continue while the snapshot serves.
  util::StatusOr<std::shared_ptr<model::PositionWiseAdapter>>
  ExportPositionWise() const;

  const AdapterStackOptions& options() const { return options_; }

 private:
  struct LayerAdapter {
    std::unique_ptr<tensor::Linear> down;  // [d -> d']
    std::unique_ptr<tensor::Linear> up;    // [d' -> d]
    std::unique_ptr<tensor::Mlp> infuser;  // f_In: [d -> hidden -> 1]
  };

  AdapterStackOptions options_;
  size_t model_dim_;
  std::vector<int> adapted_layers_;          // ascending layer indices
  std::vector<int> layer_to_slot_;           // -1 when not adapted
  std::vector<LayerAdapter> slots_;
  tensor::Tensor chain_;                     // H_A^{l-1} (graph tensor)
  float gate_override_ = -1.0f;
  std::vector<std::pair<int, float>> infusing_scores_;
  std::vector<tensor::Tensor> infuser_logits_;
};

}  // namespace infuserki::core

#endif  // INFUSERKI_CORE_ADAPTER_STACK_H_
