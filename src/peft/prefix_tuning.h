#ifndef INFUSERKI_PEFT_PREFIX_TUNING_H_
#define INFUSERKI_PEFT_PREFIX_TUNING_H_

#include <string>
#include <vector>

#include "core/ki_method.h"

namespace infuserki::peft {

/// Prefix Tuning baseline (Li & Liang, 2021).
struct PrefixTuningOptions {
  size_t prefix_len = 8;
  float init_stddev = 0.1f;
  float lr = 3e-3f;
  size_t batch_size = 8;
  size_t epochs = 25;
  uint64_t seed = 13;
};

/// Learns per-layer prefix key/value rows that every attention query can
/// attend to; all base parameters stay frozen.
class PrefixTuningMethod : public core::KiMethod {
 public:
  PrefixTuningMethod(model::TransformerLM* lm,
                     const PrefixTuningOptions& options);

  std::string name() const override { return "Prefix Tuning"; }
  void Train(const core::KiTrainData& data) override;
  model::ForwardOptions Forward() override;
  size_t NumTrainableParameters() const override;

 private:
  model::TransformerLM* lm_;
  PrefixTuningOptions options_;
  model::PrefixKv prefix_;
};

}  // namespace infuserki::peft

#endif  // INFUSERKI_PEFT_PREFIX_TUNING_H_
