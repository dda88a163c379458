#ifndef INFUSERKI_PEFT_LORA_H_
#define INFUSERKI_PEFT_LORA_H_

#include <memory>
#include <string>
#include <vector>

#include "core/ki_method.h"
#include "tensor/nn.h"

namespace infuserki::peft {

/// LoRA / QLoRA baselines (Hu et al., 2021; Dettmers et al., 2023).
struct LoraOptions {
  size_t rank = 4;
  float alpha = 8.0f;  // delta scale = alpha / rank
  /// Attach deltas to every projection (attention + FFN). The q/v-only
  /// placement of the original paper under-stores facts at simulator scale
  /// because FFN layers are where knowledge lives (Dai et al., 2022).
  bool target_all_linear = true;
  /// QLoRA: quantize the frozen base weights to blockwise int4 first.
  bool quantize_base = false;
  size_t quant_block = 32;
  float lr = 3e-3f;
  size_t batch_size = 8;
  size_t epochs = 25;
  uint64_t seed = 11;
};

/// Trainable low-rank deltas on every layer's attention query and value
/// projections (the standard LoRA placement), base weights frozen. With
/// `quantize_base` the frozen weights are first replaced by their int4
/// quantize-dequantize image, reproducing QLoRA's 4-bit base.
///
/// Attaching mutates the wrapped TransformerLM's Linear layers; the deltas
/// are detached in the destructor so the base model can be reused.
class LoraMethod : public core::KiMethod {
 public:
  LoraMethod(model::TransformerLM* lm, const LoraOptions& options);
  ~LoraMethod() override;

  std::string name() const override {
    return options_.quantize_base ? "QLoRA" : "LoRA";
  }
  void Train(const core::KiTrainData& data) override;
  model::ForwardOptions Forward() override { return {}; }
  size_t NumTrainableParameters() const override;

 private:
  model::TransformerLM* lm_;
  LoraOptions options_;
  std::vector<std::shared_ptr<tensor::LoraDelta>> deltas_;
};

}  // namespace infuserki::peft

#endif  // INFUSERKI_PEFT_LORA_H_
