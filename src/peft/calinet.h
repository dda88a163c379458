#ifndef INFUSERKI_PEFT_CALINET_H_
#define INFUSERKI_PEFT_CALINET_H_

#include <memory>
#include <string>

#include "core/ki_method.h"
#include "tensor/nn.h"

namespace infuserki::peft {

/// CALINET baseline (Dong et al., 2022): a calibration adapter — a bank of
/// extra FFN memory slots — in one specific FFN layer, trained to correct
/// false facts while the base model stays frozen.
struct CalinetOptions {
  /// 0-based layer carrying the adapter; -1 = two-thirds up the stack
  /// (CALINET calibrates in upper-middle FFN layers).
  int layer = -1;
  size_t num_slots = 96;  // memory-slot count
  /// CALINET calibrates the edited facts only (no replay of known
  /// samples) — the source of its locality weakness in the paper's tables.
  bool include_known_mix = false;
  float lr = 1e-2f;
  size_t batch_size = 8;
  size_t epochs = 25;
  uint64_t seed = 19;
};

class CalinetMethod : public core::KiMethod, public model::SublayerHook {
 public:
  CalinetMethod(model::TransformerLM* lm, const CalinetOptions& options);

  std::string name() const override { return "CALINET"; }
  void Train(const core::KiTrainData& data) override;
  model::ForwardOptions Forward() override;
  size_t NumTrainableParameters() const override;

  // model::SublayerHook (FFN side only):
  tensor::Tensor Delta(model::AdapterAttachment sublayer, int layer,
                       const tensor::Tensor& input) override;

  int adapted_layer() const { return layer_; }

 private:
  model::TransformerLM* lm_;
  CalinetOptions options_;
  int layer_;
  // FFN-style memory slots: delta = gelu(x K^T) V.
  tensor::Tensor keys_;    // [num_slots, D]
  tensor::Tensor values_;  // [num_slots, D]
};

}  // namespace infuserki::peft

#endif  // INFUSERKI_PEFT_CALINET_H_
