#ifndef INFUSERKI_PEFT_FULL_FINETUNE_H_
#define INFUSERKI_PEFT_FULL_FINETUNE_H_

#include <string>

#include "core/ki_method.h"

namespace infuserki::peft {

/// Direct full fine-tuning of all base-model parameters on the unknown QA
/// data. Not a paper-table baseline, but the "Fine-Tuned LLM" reference of
/// Fig. 1 that exhibits the catastrophic forgetting the framework targets.
struct FullFinetuneOptions {
  bool include_known_mix = false;  // Fig. 1 fine-tunes on new data only
  float lr = 1e-3f;
  size_t batch_size = 8;
  size_t epochs = 10;
  uint64_t seed = 29;
};

class FullFinetuneMethod : public core::KiMethod {
 public:
  FullFinetuneMethod(model::TransformerLM* lm,
                     const FullFinetuneOptions& options);

  std::string name() const override { return "Fine-Tuned"; }
  void Train(const core::KiTrainData& data) override;
  model::ForwardOptions Forward() override { return {}; }
  size_t NumTrainableParameters() const override;

 private:
  model::TransformerLM* lm_;
  FullFinetuneOptions options_;
};

}  // namespace infuserki::peft

#endif  // INFUSERKI_PEFT_FULL_FINETUNE_H_
