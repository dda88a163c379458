#include "peft/prefix_tuning.h"

#include "model/trainer.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace infuserki::peft {

PrefixTuningMethod::PrefixTuningMethod(model::TransformerLM* lm,
                                       const PrefixTuningOptions& options)
    : lm_(lm), options_(options) {
  CHECK(lm != nullptr);
  util::Rng rng(options.seed);
  size_t dim = lm->config().dim;
  prefix_.prefix_len = options.prefix_len;
  for (size_t l = 0; l < lm->config().num_layers; ++l) {
    prefix_.keys.push_back(tensor::Tensor::Randn(
        {options.prefix_len, dim}, &rng, options.init_stddev,
        /*requires_grad=*/true));
    prefix_.values.push_back(tensor::Tensor::Randn(
        {options.prefix_len, dim}, &rng, options.init_stddev,
        /*requires_grad=*/true));
  }
}

model::ForwardOptions PrefixTuningMethod::Forward() {
  model::ForwardOptions forward;
  forward.prefix = &prefix_;
  return forward;
}

void PrefixTuningMethod::Train(const core::KiTrainData& data) {
  obs::ScopedSpan obs_train_span("method/" + name() + "/train");
  std::vector<model::LmExample> examples = core::BuildInstructionExamples(
      data, /*include_known=*/true, /*include_yesno=*/true);
  std::vector<tensor::Tensor> params;
  for (const tensor::Tensor& t : prefix_.keys) params.push_back(t);
  for (const tensor::Tensor& t : prefix_.values) params.push_back(t);
  model::LmTrainer trainer(lm_, std::move(params),
                           {.lr = options_.lr,
                            .batch_size = options_.batch_size,
                            .seed = options_.seed + 1});
  float loss = trainer.TrainEpochs(examples, options_.epochs, Forward());
  LOG_INFO << name() << " training done, loss " << loss;
}

size_t PrefixTuningMethod::NumTrainableParameters() const {
  size_t n = 0;
  for (const tensor::Tensor& t : prefix_.keys) n += t.size();
  for (const tensor::Tensor& t : prefix_.values) n += t.size();
  return n;
}

}  // namespace infuserki::peft
