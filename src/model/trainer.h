#ifndef INFUSERKI_MODEL_TRAINER_H_
#define INFUSERKI_MODEL_TRAINER_H_

#include <functional>
#include <string>
#include <vector>

#include "model/train_state.h"
#include "model/transformer.h"
#include "tensor/optimizer.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace infuserki::model {

/// One language-modeling example: a token sequence plus the index of the
/// first supervised token (0 supervises the whole sequence, as in plain
/// pretraining; instruction samples set it to the first response token).
struct LmExample {
  std::vector<int> tokens;
  size_t loss_start = 0;
  /// Free-form marker a training recipe can attach and read back in
  /// `LmTrainer::Options::on_example` (core::BuildInstructionExamples tags
  /// known-replay samples with core::kKnownReplayTag).
  int tag = 0;
};

/// Builds an instruction example: <bos> prompt response <eos> with the loss
/// restricted to the response and <eos>.
LmExample MakeInstructionExample(const text::Tokenizer& tokenizer,
                                 const std::string& prompt,
                                 const std::string& response);

/// Builds a plain LM example: <bos> text <eos>, fully supervised.
LmExample MakePlainExample(const text::Tokenizer& tokenizer,
                           const std::string& text);

/// Generic mini-batch AdamW trainer over LmExamples. Used both for base-
/// model pretraining and for every fine-tuning method (the trainable
/// parameter set decides what actually moves).
class LmTrainer {
 public:
  struct Options {
    float lr = 1e-3f;
    // Zero by default: both pretraining and knowledge integration are
    // memorization workloads, where decay directly erodes stored facts.
    float weight_decay = 0.0f;
    float clip_norm = 1.0f;
    size_t batch_size = 8;
    uint64_t seed = 99;
    /// Cosine learning-rate decay over the TrainSteps() horizon, down to
    /// `min_lr_fraction` of the base lr. Large final-phase steps are what
    /// keep memorization losses from converging; the decay matters more
    /// here than in classification fine-tuning.
    bool cosine_decay = true;
    float min_lr_fraction = 0.1f;
    /// Invoked before each example's forward pass (per-example setup such
    /// as hook reconfiguration). May be empty.
    std::function<void(const LmExample&)> on_example = nullptr;
  };

  LmTrainer(const TransformerLM* lm, std::vector<tensor::Tensor> trainable,
            const Options& options);

  /// Runs `steps` optimizer steps, cycling over `examples` in reshuffled
  /// epochs. Returns the mean loss of the final epoch-equivalent window.
  ///
  /// With an enabled `policy`, the loop snapshots its full state (weights,
  /// AdamW moments, RNG stream, schedule position) every
  /// `policy.every_n_steps` steps and, if `policy.resume` is set, first
  /// tries to continue from the newest valid snapshot in `policy.dir`.
  /// A resumed run is bit-exact with an uninterrupted one; snapshots that
  /// fail their CRC are quarantined and the next-older one is tried.
  float TrainSteps(const std::vector<LmExample>& examples, size_t steps,
                   const ForwardOptions& forward = {},
                   const CheckpointPolicy& policy = {});

  /// TrainSteps with epochs * ceil(examples.size() / batch_size) steps. The
  /// entry every instruction-tuning recipe (each baseline and InfuserKI's
  /// QA phase) trains through.
  float TrainEpochs(const std::vector<LmExample>& examples, size_t epochs,
                    const ForwardOptions& forward = {});

  /// Single optimizer step on an explicit batch; returns its mean loss.
  float Step(const std::vector<const LmExample*>& batch,
             const ForwardOptions& forward = {});

  tensor::AdamW& optimizer() { return optimizer_; }

 private:
  const TransformerLM* lm_;
  tensor::AdamW optimizer_;
  float clip_norm_;
  size_t batch_size_;
  bool cosine_decay_;
  float min_lr_fraction_;
  float base_lr_;
  std::function<void(const LmExample&)> on_example_;
  util::Rng rng_;
};

}  // namespace infuserki::model

#endif  // INFUSERKI_MODEL_TRAINER_H_
