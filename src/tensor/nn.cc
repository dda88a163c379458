#include "tensor/nn.h"

#include <cmath>

namespace infuserki::tensor {

std::vector<NamedParameter> Module::NamedParameters() const {
  std::vector<NamedParameter> out = own_params_;
  for (const auto& [prefix, child] : children_) {
    for (NamedParameter& p : child->NamedParameters()) {
      out.push_back({prefix + "." + std::move(p.name), p.tensor});
    }
  }
  return out;
}

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> out;
  for (const NamedParameter& p : NamedParameters()) out.push_back(p.tensor);
  return out;
}

void Module::SetTrainable(bool trainable) {
  for (NamedParameter& p : NamedParameters()) {
    p.tensor.set_requires_grad(trainable);
  }
}

size_t Module::NumParameters() const {
  size_t n = 0;
  for (const NamedParameter& p : NamedParameters()) n += p.tensor.size();
  return n;
}

void Module::RegisterParameter(std::string name, Tensor tensor) {
  CHECK(tensor.defined());
  own_params_.push_back({std::move(name), std::move(tensor)});
}

void Module::RegisterModule(std::string name, Module* module) {
  CHECK(module != nullptr);
  children_.emplace_back(std::move(name), module);
}

Linear::Linear(size_t in_features, size_t out_features, util::Rng* rng,
               bool with_bias)
    : in_features_(in_features), out_features_(out_features) {
  float bound = std::sqrt(6.0f / static_cast<float>(in_features));
  weight_ = Tensor::RandUniform({out_features, in_features}, rng, -bound,
                                bound, /*requires_grad=*/true);
  RegisterParameter("weight", weight_);
  if (with_bias) {
    bias_ = Tensor::Zeros({out_features}, /*requires_grad=*/true);
    RegisterParameter("bias", bias_);
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  CHECK_EQ(x.rank(), size_t{2});
  CHECK_EQ(x.dim(1), in_features_);
  Tensor y = MatmulNT(x, weight_);
  if (bias_.defined()) y = Add(y, bias_);
  if (lora_ != nullptr) {
    Tensor delta = MatmulNT(MatmulNT(x, lora_->a), lora_->b);
    y = Add(y, MulScalar(delta, lora_->scale));
  }
  return y;
}

float Linear::QuantizeWeights(size_t block_size) {
  CHECK_GT(block_size, size_t{0});
  float* w = weight_.data();
  size_t n = weight_.size();
  double total_err = 0.0;
  for (size_t begin = 0; begin < n; begin += block_size) {
    size_t end = std::min(begin + block_size, n);
    float absmax = 0.0f;
    for (size_t i = begin; i < end; ++i) {
      absmax = std::max(absmax, std::fabs(w[i]));
    }
    // Symmetric int4: levels -7..7 (level -8 unused, like NF4's asymmetric
    // variant this keeps zero exactly representable).
    float scale = absmax > 0.0f ? absmax / 7.0f : 1.0f;
    for (size_t i = begin; i < end; ++i) {
      float q = std::round(w[i] / scale);
      q = std::min(7.0f, std::max(-7.0f, q));
      float dq = q * scale;
      total_err += std::fabs(dq - w[i]);
      w[i] = dq;
    }
  }
  return static_cast<float>(total_err / static_cast<double>(n));
}

Embedding::Embedding(size_t num_embeddings, size_t dim, util::Rng* rng,
                     float init_stddev)
    : num_embeddings_(num_embeddings), dim_(dim) {
  table_ = Tensor::Randn({num_embeddings, dim}, rng, init_stddev,
                         /*requires_grad=*/true);
  RegisterParameter("table", table_);
}

Tensor Embedding::Forward(const std::vector<int>& ids) const {
  return GatherRows(table_, ids);
}

Mlp::Mlp(size_t in_features, size_t hidden, size_t out_features,
         util::Rng* rng, Activation activation)
    : activation_(activation),
      fc1_(in_features, hidden, rng),
      fc2_(hidden, out_features, rng) {
  RegisterModule("fc1", &fc1_);
  RegisterModule("fc2", &fc2_);
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = fc1_.Forward(x);
  switch (activation_) {
    case Activation::kRelu:
      h = Relu(h);
      break;
    case Activation::kTanh:
      h = Tanh(h);
      break;
    case Activation::kGelu:
      h = Gelu(h);
      break;
    case Activation::kSilu:
      h = Silu(h);
      break;
  }
  return fc2_.Forward(h);
}

std::shared_ptr<LoraDelta> MakeLoraDelta(size_t in_features,
                                         size_t out_features, size_t rank,
                                         float scale, util::Rng* rng) {
  auto delta = std::make_shared<LoraDelta>();
  float bound = std::sqrt(6.0f / static_cast<float>(in_features));
  delta->a = Tensor::RandUniform({rank, in_features}, rng, -bound, bound,
                                 /*requires_grad=*/true);
  delta->b = Tensor::Zeros({out_features, rank}, /*requires_grad=*/true);
  delta->scale = scale;
  return delta;
}

}  // namespace infuserki::tensor
