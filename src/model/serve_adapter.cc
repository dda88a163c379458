#include "model/serve_adapter.h"

#include <algorithm>
#include <utility>

#include "tensor/ops.h"
#include "util/logging.h"

namespace infuserki::model {

using tensor::Tensor;

Tensor AdapterChainStep(const Tensor& input, const Tensor& chain,
                        const Tensor& down_weight, const Tensor& down_bias,
                        const Tensor& up_weight, const Tensor& up_bias) {
  Tensor combined = chain.defined() ? tensor::Add(input, chain) : input;
  Tensor hidden = tensor::Relu(
      tensor::Add(tensor::MatmulNT(combined, down_weight), down_bias));
  return tensor::Add(tensor::MatmulNT(hidden, up_weight), up_bias);
}

PositionWiseAdapter::PositionWiseAdapter(size_t model_dim, size_t bottleneck,
                                         AdapterAttachment attachment,
                                         std::vector<LayerWeights> layers)
    : model_dim_(model_dim),
      bottleneck_(bottleneck),
      attachment_(attachment),
      layers_(std::move(layers)) {
  CHECK_GT(model_dim_, size_t{0});
  CHECK_GT(bottleneck_, size_t{0});
  int max_layer = -1;
  for (const LayerWeights& slot : layers_) {
    CHECK_GT(slot.layer, max_layer) << "layers must be strictly ascending";
    max_layer = slot.layer;
    CHECK_EQ(slot.down_weight.dim(0), bottleneck_);
    CHECK_EQ(slot.down_weight.dim(1), model_dim_);
    CHECK_EQ(slot.down_bias.dim(0), bottleneck_);
    CHECK_EQ(slot.up_weight.dim(0), model_dim_);
    CHECK_EQ(slot.up_weight.dim(1), bottleneck_);
    CHECK_EQ(slot.up_bias.dim(0), model_dim_);
  }
}

const PositionWiseAdapter::LayerWeights* PositionWiseAdapter::Find(
    int layer) const {
  auto it = std::lower_bound(
      layers_.begin(), layers_.end(), layer,
      [](const LayerWeights& slot, int l) { return slot.layer < l; });
  return it != layers_.end() && it->layer == layer ? &*it : nullptr;
}

Tensor PositionWiseAdapterHook::Delta(AdapterAttachment sublayer, int layer,
                                      const Tensor& input) {
  if (adapter_ == nullptr || adapter_->attachment() != sublayer) {
    return Tensor();
  }
  const PositionWiseAdapter::LayerWeights* slot = adapter_->Find(layer);
  if (slot == nullptr) return Tensor();
  chain_ = AdapterChainStep(input, chain_, slot->down_weight,
                            slot->down_bias, slot->up_weight, slot->up_bias);
  return chain_;
}

ForwardOptions PositionWiseAdapterHook::Options() {
  ForwardOptions options;
  if (adapter_ != nullptr) options.hook = this;
  return options;
}

}  // namespace infuserki::model
