#ifndef INFUSERKI_MODEL_HOOKS_H_
#define INFUSERKI_MODEL_HOOKS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace infuserki::model {

/// Which sublayer a hook delta belongs to; training names it
/// core::AdapterPlacement. The values are the on-disk adapter encoding.
enum class AdapterAttachment : uint32_t {
  kFfn = 0,
  kAttention = 1,
};

/// Extension point for modules running parallel to a transformer sublayer.
///
/// For each transformer layer the model calls Delta() twice: with
/// kAttention and the normalized attention sublayer input, then with kFfn
/// and H_P^l, the FFN sublayer input (the paper's notation, Eq. 1). The
/// returned tensor is added to that sublayer's output before the residual
/// connection (Eqs. 3/6); an undefined Tensor means "no contribution
/// here". InfuserKI's gated knowledge adapters (on either sublayer, the
/// Fig. 5 placement ablation), CALINET's calibration adapter and
/// T-Patcher's patch neurons are all SublayerHooks.
///
/// Cached decode protocol: on the KV-cached path (BatchedDecodeSession)
/// each forward calls BeginForward() and then feeds Delta only the NEW
/// rows, packed across every row of the batch. A hook whose delta for a
/// row depends only on that row (position-wise: CALINET, T-Patcher, and
/// the adapter chain without the Infuser gate) is therefore bit-identical
/// to the full-sequence pass with no extra work. A hook whose delta pools
/// over the WHOLE sequence must override SequenceStateful() to return
/// true: its full-sequence forward is non-causal (every row's delta sees
/// later rows through the pooled gate), so no cached pass can reproduce it
/// bit-exactly, and the generation layer routes such forwards to the
/// full-recompute path instead of a session (see DESIGN.md §7).
class SublayerHook {
 public:
  virtual ~SublayerHook() = default;

  /// Called once per forward pass before any layer runs; stateful hooks
  /// (e.g. InfuserKI's cross-layer adapter chain) reset here.
  virtual void BeginForward() {}

  /// True when the hook's delta for a row depends on other rows of the
  /// sequence (e.g. the Infuser gate's Mean(H_P^l) pooling). Such hooks are
  /// incompatible with KV-cached decoding.
  virtual bool SequenceStateful() const { return false; }

  /// `layer` is 0-based; `input` is the `sublayer` input, shape [T, D].
  virtual tensor::Tensor Delta(AdapterAttachment sublayer, int layer,
                               const tensor::Tensor& input) = 0;
};

/// Learned per-layer prefix key/value rows for prefix tuning. keys[l] and
/// values[l] have shape [prefix_len, D]; they are prepended to that layer's
/// attention keys/values and are visible to every query position.
struct PrefixKv {
  std::vector<tensor::Tensor> keys;
  std::vector<tensor::Tensor> values;
  size_t prefix_len = 0;
};

/// Optional per-forward recording used by analysis benches (Fig. 1, Fig. 6).
/// Recorded tensors are detached from the autograd graph.
struct ForwardTrace {
  bool record_ffn_inputs = false;
  bool record_layer_outputs = false;
  std::vector<tensor::Tensor> ffn_inputs;     // H_P^l per layer, [T, D]
  std::vector<tensor::Tensor> layer_outputs;  // residual stream after layer l
};

/// Per-call forward configuration.
struct ForwardOptions {
  SublayerHook* hook = nullptr;
  const PrefixKv* prefix = nullptr;
  ForwardTrace* trace = nullptr;
};

/// True when `options` carries a hook whose delta pools over the whole
/// sequence; forwards with such hooks must take the full-recompute path
/// instead of a BatchedDecodeSession.
inline bool HasSequenceStatefulHook(const ForwardOptions& options) {
  return options.hook != nullptr && options.hook->SequenceStateful();
}

}  // namespace infuserki::model

#endif  // INFUSERKI_MODEL_HOOKS_H_
