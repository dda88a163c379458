#ifndef INFUSERKI_PEFT_TPATCHER_H_
#define INFUSERKI_PEFT_TPATCHER_H_

#include <string>

#include "core/ki_method.h"
#include "tensor/nn.h"

namespace infuserki::peft {

/// T-Patcher baseline (Huang et al., 2023): trainable "patch" neurons
/// appended to the last FFN layer, one small patch bank per editing run.
struct TPatcherOptions {
  /// Patches per unknown fact; total patches are capped by `max_patches`.
  size_t patches_per_edit = 2;
  size_t max_patches = 256;
  /// T-Patcher trains patches on the edits only (its locality comes from a
  /// trigger-style activation, not replay), which is what makes it fragile
  /// on broad integration workloads — reproduced here.
  bool include_known_mix = false;
  float lr = 1e-2f;
  size_t batch_size = 8;
  size_t epochs = 25;
  uint64_t seed = 23;
};

class TPatcherMethod : public core::KiMethod, public model::FfnHook {
 public:
  TPatcherMethod(model::TransformerLM* lm, const TPatcherOptions& options);

  std::string name() const override { return "T-Patcher"; }
  void Train(const core::KiTrainData& data) override;
  model::ForwardOptions Forward() override;
  size_t NumTrainableParameters() const override;

  // model::FfnHook:
  tensor::Tensor FfnDelta(int layer,
                          const tensor::Tensor& ffn_input) override;

  size_t num_patches() const {
    return keys_.defined() ? keys_.dim(0) : 0;
  }

 private:
  void InitPatches(size_t count);

  model::TransformerLM* lm_;
  TPatcherOptions options_;
  int last_layer_;
  // Patch neurons on the last FFN layer: delta = relu(x K^T + b) V.
  tensor::Tensor keys_;    // [P, D]
  tensor::Tensor bias_;    // [P]
  tensor::Tensor values_;  // [P, D]
};

}  // namespace infuserki::peft

#endif  // INFUSERKI_PEFT_TPATCHER_H_
