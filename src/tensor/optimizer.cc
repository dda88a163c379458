#include "tensor/optimizer.h"

#include <cmath>
#include <cstring>
#include <string>

namespace infuserki::tensor {

float ClipGradNorm(const std::vector<Tensor>& params, float max_norm) {
  double sum_sq = 0.0;
  for (const Tensor& p : params) {
    for (float g : p.grad()) sum_sq += static_cast<double>(g) * g;
  }
  float norm = static_cast<float>(std::sqrt(sum_sq));
  if (norm > max_norm && norm > 0.0f) {
    float scale = max_norm / norm;
    for (const Tensor& p : params) {
      // Tensor handles share storage; the const handle still exposes the
      // gradient buffer through impl().
      auto& grad = p.impl()->grad;
      for (float& g : grad) g *= scale;
    }
  }
  return norm;
}

AdamW::AdamW(std::vector<Tensor> params, Options options)
    : params_(std::move(params)), options_(options) {
  for (const Tensor& p : params_) CHECK(p.defined());
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].size(), 0.0f);
    v_[i].assign(params_[i].size(), 0.0f);
  }
}

void AdamW::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

void AdamW::Step() {
  ++step_;
  float bc1 = 1.0f - std::pow(options_.beta1, static_cast<float>(step_));
  float bc2 = 1.0f - std::pow(options_.beta2, static_cast<float>(step_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (p.grad().empty()) continue;  // untouched this step
    float* w = p.data();
    const float* g = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    for (size_t j = 0; j < p.size(); ++j) {
      m[j] = options_.beta1 * m[j] + (1.0f - options_.beta1) * g[j];
      v[j] = options_.beta2 * v[j] + (1.0f - options_.beta2) * g[j] * g[j];
      float m_hat = m[j] / bc1;
      float v_hat = v[j] / bc2;
      // Decoupled weight decay: applied to the weight directly, not the
      // gradient (AdamW's defining property).
      w[j] -= options_.lr *
              (m_hat / (std::sqrt(v_hat) + options_.eps) +
               options_.weight_decay * w[j]);
    }
  }
}

void AdamW::Serialize(util::BinaryWriter* writer) const {
  writer->WriteU64(params_.size());
  writer->WriteU64(static_cast<uint64_t>(step_));
  for (size_t i = 0; i < params_.size(); ++i) {
    writer->WriteFloatVector(params_[i].vec());
    writer->WriteFloatVector(m_[i]);
    writer->WriteFloatVector(v_[i]);
  }
}

util::Status AdamW::Deserialize(util::BinaryReader* reader) {
  const uint64_t count = reader->ReadU64();
  const uint64_t step = reader->ReadU64();
  if (!reader->ok()) {
    return util::Status::DataLoss("truncated optimizer state");
  }
  if (count != params_.size()) {
    return util::Status::InvalidArgument(
        "optimizer state has " + std::to_string(count) +
        " parameters, this optimizer has " +
        std::to_string(params_.size()));
  }
  // Stage everything before committing so a bad blob cannot leave the
  // optimizer (or the model sharing the parameter storage) half-restored.
  std::vector<std::vector<float>> weights(count), m(count), v(count);
  for (uint64_t i = 0; i < count; ++i) {
    weights[i] = reader->ReadFloatVector();
    m[i] = reader->ReadFloatVector();
    v[i] = reader->ReadFloatVector();
    if (!reader->ok()) {
      return util::Status::DataLoss("truncated optimizer state");
    }
    if (weights[i].size() != params_[i].size() ||
        m[i].size() != params_[i].size() ||
        v[i].size() != params_[i].size()) {
      return util::Status::InvalidArgument(
          "optimizer state size mismatch for parameter " +
          std::to_string(i));
    }
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::memcpy(params_[i].data(), weights[i].data(),
                weights[i].size() * sizeof(float));
    m_[i] = std::move(m[i]);
    v_[i] = std::move(v[i]);
  }
  step_ = static_cast<int64_t>(step);
  return util::Status::OK();
}

}  // namespace infuserki::tensor
