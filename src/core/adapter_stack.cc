#include "core/adapter_stack.h"

#include "tensor/ops.h"
#include "util/logging.h"

namespace infuserki::core {

using tensor::Tensor;

KnowledgeAdapterStack::KnowledgeAdapterStack(
    size_t model_dim, size_t num_layers, const AdapterStackOptions& options)
    : options_(options), model_dim_(model_dim) {
  int last = options.last_layer < 0 ? static_cast<int>(num_layers) - 1
                                    : options.last_layer;
  CHECK_GE(options.first_layer, 0);
  CHECK_LE(options.first_layer, last);
  CHECK_LT(static_cast<size_t>(last), num_layers);
  layer_to_slot_.assign(num_layers, -1);
  util::Rng rng(options.seed);
  for (int layer = options.first_layer; layer <= last; ++layer) {
    layer_to_slot_[static_cast<size_t>(layer)] =
        static_cast<int>(slots_.size());
    adapted_layers_.push_back(layer);
    LayerAdapter slot;
    slot.down = std::make_unique<tensor::Linear>(
        model_dim, options.bottleneck, &rng, /*with_bias=*/true);
    slot.up = std::make_unique<tensor::Linear>(options.bottleneck, model_dim,
                                               &rng, /*with_bias=*/true);
    // Zero-init the up-projection so a fresh stack is an exact no-op (the
    // standard adapter/LoRA trick: integration starts from the base model).
    std::fill(slot.up->weight().impl()->data.begin(),
              slot.up->weight().impl()->data.end(), 0.0f);
    slot.infuser = std::make_unique<tensor::Mlp>(
        model_dim, options.infuser_hidden, 1, &rng);
    // Default-closed gate: a layer whose internal state cannot separate
    // known from unknown should rest near r = 0 (no interference), not at
    // the sigmoid midpoint. Phase-1 training opens separable layers.
    for (tensor::NamedParameter& p : slot.infuser->NamedParameters()) {
      // Effective closed-gate logit: bias * gate_sharpness.
      if (p.name == "fc2.bias") p.tensor.data()[0] = -0.7f;
    }
    std::string prefix = "adapter" + std::to_string(layer);
    RegisterModule(prefix + ".down", slot.down.get());
    RegisterModule(prefix + ".up", slot.up.get());
    RegisterModule(prefix + ".infuser", slot.infuser.get());
    slots_.push_back(std::move(slot));
  }
}

void KnowledgeAdapterStack::BeginForward() {
  chain_ = Tensor();
  infusing_scores_.clear();
  infuser_logits_.clear();
}

bool KnowledgeAdapterStack::IsAdapted(int layer) const {
  return layer >= 0 && static_cast<size_t>(layer) < layer_to_slot_.size() &&
         layer_to_slot_[static_cast<size_t>(layer)] >= 0;
}

Tensor KnowledgeAdapterStack::Delta(AdapterPlacement sublayer, int layer,
                                    const Tensor& input) {
  if (sublayer != options_.placement || !IsAdapted(layer)) return Tensor();
  const LayerAdapter& slot =
      slots_[static_cast<size_t>(layer_to_slot_[static_cast<size_t>(layer)])];

  // Eqs. 1-2: H_A^l, carried to the next layer.
  chain_ = model::AdapterChainStep(input, chain_, slot.down->weight(),
                                   slot.down->bias(), slot.up->weight(),
                                   slot.up->bias());

  if (!options_.use_infuser) {
    // InfuserKI-w/o-Ro: the raw adapter output merges unconditionally
    // (Eq. 3).
    return chain_;
  }

  // Eq. 4: infusing score from the mean internal state. Pooling over the
  // whole sequence is what makes the gated stack SequenceStateful().
  Tensor pooled = tensor::Reshape(tensor::MeanAxis0(input), {1, model_dim_});
  Tensor logit = tensor::MulScalar(
      tensor::Reshape(slot.infuser->Forward(pooled), {1}),
      options_.gate_sharpness);
  Tensor score = tensor::Sigmoid(logit);
  infuser_logits_.push_back(logit);

  if (gate_override_ >= 0.0f) {
    // Training-time override (known-replay examples run with the gate
    // forced open so the adapter itself learns to preserve known answers).
    infusing_scores_.emplace_back(layer, gate_override_);
    return tensor::MulScalar(chain_, gate_override_);
  }
  infusing_scores_.emplace_back(layer, score.item());
  // Eq. 6 contribution: gated adapter vector.
  return tensor::Mul(chain_, score);
}

std::vector<Tensor> KnowledgeAdapterStack::AdapterParameters() const {
  std::vector<Tensor> out;
  for (const LayerAdapter& slot : slots_) {
    for (const Tensor& t : slot.down->Parameters()) out.push_back(t);
    for (const Tensor& t : slot.up->Parameters()) out.push_back(t);
  }
  return out;
}

std::vector<Tensor> KnowledgeAdapterStack::InfuserParameters() const {
  std::vector<Tensor> out;
  for (const LayerAdapter& slot : slots_) {
    for (const Tensor& t : slot.infuser->Parameters()) out.push_back(t);
  }
  return out;
}

namespace {

/// Fresh detached tensor with `t`'s shape and values (no storage sharing,
/// no autograd history): the export must stay frozen while training
/// continues on the stack.
Tensor DetachedCopy(const Tensor& t) {
  return Tensor::FromData(t.shape(), t.impl()->data);
}

}  // namespace

util::StatusOr<std::shared_ptr<model::PositionWiseAdapter>>
KnowledgeAdapterStack::ExportPositionWise() const {
  if (options_.use_infuser) {
    return util::Status::FailedPrecondition(
        "gated (use_infuser) stacks pool Mean(H_P^l) over the whole "
        "sequence and cannot be exported for position-wise serving; train "
        "with use_infuser = false (w/o-Ro) for hot-swap publication");
  }
  std::vector<model::PositionWiseAdapter::LayerWeights> layers;
  layers.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    const LayerAdapter& slot = slots_[i];
    model::PositionWiseAdapter::LayerWeights weights;
    weights.layer = adapted_layers_[i];
    weights.down_weight = DetachedCopy(slot.down->weight());
    weights.down_bias = DetachedCopy(slot.down->bias());
    weights.up_weight = DetachedCopy(slot.up->weight());
    weights.up_bias = DetachedCopy(slot.up->bias());
    layers.push_back(std::move(weights));
  }
  return std::make_shared<model::PositionWiseAdapter>(
      model_dim_, options_.bottleneck, options_.placement, std::move(layers));
}

}  // namespace infuserki::core
