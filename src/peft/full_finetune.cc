#include "peft/full_finetune.h"

#include "model/trainer.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace infuserki::peft {

FullFinetuneMethod::FullFinetuneMethod(model::TransformerLM* lm,
                                       const FullFinetuneOptions& options)
    : lm_(lm), options_(options) {
  CHECK(lm != nullptr);
}

void FullFinetuneMethod::Train(const core::KiTrainData& data) {
  obs::ScopedSpan obs_train_span("method/" + name() + "/train");
  std::vector<model::LmExample> examples = core::BuildInstructionExamples(
      data, options_.include_known_mix, /*include_yesno=*/true);
  lm_->SetTrainable(true);
  model::LmTrainer trainer(lm_, lm_->Parameters(),
                           {.lr = options_.lr,
                            .batch_size = options_.batch_size,
                            .seed = options_.seed + 1});
  float loss = trainer.TrainEpochs(examples, options_.epochs);
  LOG_INFO << name() << " training done, loss " << loss;
}

size_t FullFinetuneMethod::NumTrainableParameters() const {
  return lm_->NumParameters();
}

}  // namespace infuserki::peft
