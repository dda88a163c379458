#include "peft/calinet.h"

#include "model/trainer.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace infuserki::peft {

CalinetMethod::CalinetMethod(model::TransformerLM* lm,
                             const CalinetOptions& options)
    : lm_(lm), options_(options) {
  CHECK(lm != nullptr);
  layer_ = options.layer >= 0
               ? options.layer
               : static_cast<int>(lm->config().num_layers * 2 / 3);
  CHECK_LT(static_cast<size_t>(layer_), lm->config().num_layers);
  util::Rng rng(options.seed);
  size_t dim = lm->config().dim;
  keys_ = tensor::Tensor::Randn({options.num_slots, dim}, &rng, 0.05f,
                                /*requires_grad=*/true);
  // Zero value slots: the adapter starts as a no-op.
  values_ = tensor::Tensor::Zeros({options.num_slots, dim},
                                  /*requires_grad=*/true);
}

tensor::Tensor CalinetMethod::Delta(model::AdapterAttachment sublayer,
                                    int layer, const tensor::Tensor& input) {
  if (sublayer != model::AdapterAttachment::kFfn || layer != layer_) {
    return tensor::Tensor();
  }
  tensor::Tensor activation = tensor::Gelu(tensor::MatmulNT(input, keys_));
  return tensor::Matmul(activation, values_);
}

model::ForwardOptions CalinetMethod::Forward() {
  model::ForwardOptions forward;
  forward.hook = this;
  return forward;
}

void CalinetMethod::Train(const core::KiTrainData& data) {
  obs::ScopedSpan obs_train_span("method/" + name() + "/train");
  std::vector<model::LmExample> examples = core::BuildInstructionExamples(
      data, options_.include_known_mix, /*include_yesno=*/true);
  model::LmTrainer trainer(lm_, {keys_, values_},
                           {.lr = options_.lr,
                            .batch_size = options_.batch_size,
                            .seed = options_.seed + 1});
  float loss = trainer.TrainEpochs(examples, options_.epochs, Forward());
  LOG_INFO << name() << " training done, loss " << loss;
}

size_t CalinetMethod::NumTrainableParameters() const {
  return keys_.size() + values_.size();
}

}  // namespace infuserki::peft
