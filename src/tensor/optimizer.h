#ifndef INFUSERKI_TENSOR_OPTIMIZER_H_
#define INFUSERKI_TENSOR_OPTIMIZER_H_

#include <vector>

#include "tensor/tensor.h"
#include "util/serialize.h"
#include "util/status.h"

namespace infuserki::tensor {

/// Rescales gradients of `params` so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm.
float ClipGradNorm(const std::vector<Tensor>& params, float max_norm);

/// Decoupled weight decay Adam (Loshchilov & Hutter, 2018) — the optimizer
/// used in the paper's experiments (§4.1) and by every trainer here.
class AdamW {
 public:
  struct Options {
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.01f;
  };

  AdamW(std::vector<Tensor> params, Options options);

  AdamW(const AdamW&) = delete;
  AdamW& operator=(const AdamW&) = delete;

  /// Applies one update from the accumulated gradients.
  void Step();

  /// Clears all parameter gradients.
  void ZeroGrad();

  const std::vector<Tensor>& params() const { return params_; }

  /// Appends the full optimizer state — parameter values, first/second
  /// moments, and the bias-correction step counter — to `writer`,
  /// positionally (parameter i of the writing optimizer restores into
  /// parameter i of the reading one). Hyperparameters are not serialized;
  /// the learning rate is re-derived by the caller's schedule.
  void Serialize(util::BinaryWriter* writer) const;

  /// Restores state written by Serialize() into this optimizer's parameters
  /// (writing through the shared tensor storage, i.e. into the model) and
  /// moments. Transactional: everything is read and shape-checked against
  /// the current parameter list before any value is committed, so a failed
  /// load leaves parameters and moments untouched.
  util::Status Deserialize(util::BinaryReader* reader);

  /// Learning-rate override for warmup/decay schedules.
  void set_lr(float lr) { options_.lr = lr; }
  float lr() const { return options_.lr; }
  int64_t step_count() const { return step_; }

 private:
  std::vector<Tensor> params_;
  Options options_;
  int64_t step_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace infuserki::tensor

#endif  // INFUSERKI_TENSOR_OPTIMIZER_H_
