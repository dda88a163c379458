#include "peft/tpatcher.h"

#include <algorithm>

#include "model/trainer.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace infuserki::peft {

TPatcherMethod::TPatcherMethod(model::TransformerLM* lm,
                               const TPatcherOptions& options)
    : lm_(lm),
      options_(options),
      last_layer_(static_cast<int>(lm->config().num_layers) - 1) {
  CHECK(lm != nullptr);
}

void TPatcherMethod::InitPatches(size_t count) {
  util::Rng rng(options_.seed);
  size_t dim = lm_->config().dim;
  keys_ = tensor::Tensor::Randn({count, dim}, &rng, 0.05f,
                                /*requires_grad=*/true);
  // Negative bias: patches start (mostly) inactive, T-Patcher's trigger
  // design.
  bias_ = tensor::Tensor::Full({count}, -0.1f, /*requires_grad=*/true);
  values_ = tensor::Tensor::Zeros({count, dim}, /*requires_grad=*/true);
}

tensor::Tensor TPatcherMethod::FfnDelta(int layer,
                                        const tensor::Tensor& ffn_input) {
  if (layer != last_layer_ || !keys_.defined()) return tensor::Tensor();
  tensor::Tensor activation = tensor::Relu(
      tensor::Add(tensor::MatmulNT(ffn_input, keys_), bias_));
  return tensor::Matmul(activation, values_);
}

model::ForwardOptions TPatcherMethod::Forward() {
  model::ForwardOptions forward;
  forward.ffn_hook = this;
  return forward;
}

void TPatcherMethod::Train(const core::KiTrainData& data) {
  obs::ScopedSpan obs_train_span("method/" + name() + "/train");
  size_t edits = std::max<size_t>(1, data.unknown_qa.size() / 2);
  size_t patches = std::min(options_.max_patches,
                            std::max<size_t>(8, edits *
                                                   options_.patches_per_edit));
  InitPatches(patches);
  std::vector<model::LmExample> examples = core::BuildInstructionExamples(
      data, options_.include_known_mix, /*include_yesno=*/true);
  model::LmTrainer trainer(lm_, {keys_, bias_, values_},
                           {.lr = options_.lr,
                            .batch_size = options_.batch_size,
                            .seed = options_.seed + 1});
  float loss = trainer.TrainEpochs(examples, options_.epochs, Forward());
  LOG_INFO << name() << " training done with " << patches
           << " patches, loss " << loss;
}

size_t TPatcherMethod::NumTrainableParameters() const {
  if (!keys_.defined()) return 0;
  return keys_.size() + bias_.size() + values_.size();
}

}  // namespace infuserki::peft
