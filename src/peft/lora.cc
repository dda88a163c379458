#include "peft/lora.h"

#include "model/trainer.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace infuserki::peft {

LoraMethod::LoraMethod(model::TransformerLM* lm, const LoraOptions& options)
    : lm_(lm), options_(options) {
  CHECK(lm != nullptr);
  util::Rng rng(options.seed);
  float scale = options.alpha / static_cast<float>(options.rank);
  for (size_t l = 0; l < lm->config().num_layers; ++l) {
    model::TransformerLayer& layer = lm->layer(l);
    if (options.quantize_base) {
      layer.wq().QuantizeWeights(options.quant_block);
      layer.wk().QuantizeWeights(options.quant_block);
      layer.wv().QuantizeWeights(options.quant_block);
      layer.wo().QuantizeWeights(options.quant_block);
      layer.ffn_gate().QuantizeWeights(options.quant_block);
      layer.ffn_up().QuantizeWeights(options.quant_block);
      layer.ffn_down().QuantizeWeights(options.quant_block);
    }
    auto attach = [&](tensor::Linear& linear) {
      auto delta = tensor::MakeLoraDelta(linear.in_features(),
                                         linear.out_features(), options.rank,
                                         scale, &rng);
      linear.AttachLora(delta);
      deltas_.push_back(std::move(delta));
    };
    attach(layer.wq());
    attach(layer.wv());
    if (options.target_all_linear) {
      attach(layer.wk());
      attach(layer.wo());
      attach(layer.ffn_gate());
      attach(layer.ffn_up());
      attach(layer.ffn_down());
    }
  }
}

LoraMethod::~LoraMethod() {
  for (size_t l = 0; l < lm_->config().num_layers; ++l) {
    model::TransformerLayer& layer = lm_->layer(l);
    layer.wq().DetachLora();
    layer.wv().DetachLora();
    layer.wk().DetachLora();
    layer.wo().DetachLora();
    layer.ffn_gate().DetachLora();
    layer.ffn_up().DetachLora();
    layer.ffn_down().DetachLora();
  }
}

void LoraMethod::Train(const core::KiTrainData& data) {
  obs::ScopedSpan obs_train_span("method/" + name() + "/train");
  std::vector<model::LmExample> examples = core::BuildInstructionExamples(
      data, /*include_known=*/true, /*include_yesno=*/true);
  std::vector<tensor::Tensor> params;
  for (const auto& delta : deltas_) {
    params.push_back(delta->a);
    params.push_back(delta->b);
  }
  model::LmTrainer trainer(lm_, std::move(params),
                           {.lr = options_.lr,
                            .batch_size = options_.batch_size,
                            .seed = options_.seed + 1});
  float loss = trainer.TrainEpochs(examples, options_.epochs);
  LOG_INFO << name() << " training done, loss " << loss;
}

size_t LoraMethod::NumTrainableParameters() const {
  size_t n = 0;
  for (const auto& delta : deltas_) {
    n += delta->a.size() + delta->b.size();
  }
  return n;
}

}  // namespace infuserki::peft
