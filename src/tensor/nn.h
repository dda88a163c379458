#ifndef INFUSERKI_TENSOR_NN_H_
#define INFUSERKI_TENSOR_NN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace infuserki::tensor {

/// A named trainable tensor, as exposed by Module::NamedParameters().
struct NamedParameter {
  std::string name;
  Tensor tensor;
};

/// Base class for parameterized components. Subclasses register their
/// parameters and child modules in their constructors; NamedParameters()
/// then walks the tree producing "child.param"-style names used by
/// checkpoints and optimizers.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and its children, prefixed with the
  /// registration path.
  std::vector<NamedParameter> NamedParameters() const;

  /// Convenience: the tensors only.
  std::vector<Tensor> Parameters() const;

  /// Flips requires_grad on every parameter (freeze = false).
  void SetTrainable(bool trainable);

  /// Total number of parameter scalars.
  size_t NumParameters() const;

 protected:
  void RegisterParameter(std::string name, Tensor tensor);
  void RegisterModule(std::string name, Module* module);

 private:
  std::vector<NamedParameter> own_params_;
  std::vector<std::pair<std::string, Module*>> children_;
};

/// Low-rank (LoRA) delta attached to a Linear: y += scale * x A^T B^T.
struct LoraDelta {
  Tensor a;  // [rank, in_features]
  Tensor b;  // [out_features, rank]
  float scale = 1.0f;
};

/// Fully-connected layer storing weights as [out_features, in_features].
///
/// Supports two post-hoc modifications used by the PEFT baselines:
///   * AttachLora()/DetachLora() adds a trainable low-rank delta while the
///     base weight stays frozen (LoRA);
///   * QuantizeWeights() replaces the base weight by its blockwise-int4
///     quantize-dequantize image (QLoRA's frozen 4-bit base).
class Linear : public Module {
 public:
  /// Kaiming-uniform initialized weight, zero bias (if with_bias).
  Linear(size_t in_features, size_t out_features, util::Rng* rng,
         bool with_bias = true);

  /// y = x W^T (+ bias) (+ LoRA delta). x: [T, in] -> [T, out].
  Tensor Forward(const Tensor& x) const;

  void AttachLora(std::shared_ptr<LoraDelta> delta) {
    lora_ = std::move(delta);
  }
  void DetachLora() { lora_.reset(); }
  bool has_lora() const { return lora_ != nullptr; }

  /// In-place blockwise absmax int4 quantize-dequantize of the weight.
  /// Returns the mean absolute quantization error (for tests/diagnostics).
  float QuantizeWeights(size_t block_size = 32);

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }
  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

 private:
  size_t in_features_;
  size_t out_features_;
  Tensor weight_;  // [out, in]
  Tensor bias_;    // [out] or undefined
  std::shared_ptr<LoraDelta> lora_;
};

/// Token-or-position embedding table.
class Embedding : public Module {
 public:
  Embedding(size_t num_embeddings, size_t dim, util::Rng* rng,
            float init_stddev = 0.02f);

  /// Rows for `ids` -> [ids.size(), dim].
  Tensor Forward(const std::vector<int>& ids) const;

  const Tensor& table() const { return table_; }
  size_t num_embeddings() const { return num_embeddings_; }
  size_t dim() const { return dim_; }

 private:
  size_t num_embeddings_;
  size_t dim_;
  Tensor table_;
};

/// Two-layer MLP, fc2(tanh(fc1(x))), with a nonlinearity-free output (the
/// caller applies the loss or sigmoid). Used by the Infuser f_In (Eq. 4);
/// the RC heads (Eq. 9) are a Linear and an Embedding.
class Mlp : public Module {
 public:
  Mlp(size_t in_features, size_t hidden, size_t out_features, util::Rng* rng);

  Tensor Forward(const Tensor& x) const;

 private:
  Linear fc1_;
  Linear fc2_;
};

/// Helper shared by LoRA-style initializers: A ~ kaiming, B = 0 so the
/// delta starts as a no-op.
std::shared_ptr<LoraDelta> MakeLoraDelta(size_t in_features,
                                         size_t out_features, size_t rank,
                                         float scale, util::Rng* rng);

}  // namespace infuserki::tensor

#endif  // INFUSERKI_TENSOR_NN_H_
