#include "model/trainer.h"

#include <cmath>
#include <filesystem>
#include <numeric>
#include <system_error>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace infuserki::model {
namespace {

/// Trainer metrics shared by all LmTrainer instances (pretraining and every
/// method's fine-tuning phases).
struct TrainerMetrics {
  obs::Counter* steps;
  obs::Counter* tokens;
  obs::Counter* examples;
  obs::Histogram* step_seconds;
  obs::Gauge* last_loss;
  obs::Gauge* tokens_per_sec;
};

TrainerMetrics& Metrics() {
  // Locking contract: resolved once under the magic-static guard; the
  // struct is immutable afterwards and every metric update is a relaxed
  // atomic on the lock-free metric objects.
  static TrainerMetrics* metrics = [] {
    obs::Registry& registry = obs::Registry::Get();
    return new TrainerMetrics{
        registry.GetCounter("trainer/steps"),
        registry.GetCounter("trainer/tokens"),
        registry.GetCounter("trainer/examples"),
        registry.GetHistogram("trainer/step_seconds"),
        registry.GetGauge("trainer/last_loss"),
        registry.GetGauge("trainer/tokens_per_sec")};
  }();
  return *metrics;
}

}  // namespace

LmExample MakeInstructionExample(const text::Tokenizer& tokenizer,
                                 const std::string& prompt,
                                 const std::string& response) {
  LmExample example;
  example.tokens.push_back(text::kBosId);
  std::vector<int> prompt_ids = tokenizer.Encode(prompt);
  example.tokens.insert(example.tokens.end(), prompt_ids.begin(),
                        prompt_ids.end());
  example.loss_start = example.tokens.size();
  std::vector<int> response_ids = tokenizer.Encode(response);
  CHECK(!response_ids.empty()) << "empty response text";
  example.tokens.insert(example.tokens.end(), response_ids.begin(),
                        response_ids.end());
  example.tokens.push_back(text::kEosId);
  return example;
}

LmExample MakePlainExample(const text::Tokenizer& tokenizer,
                           const std::string& text) {
  LmExample example;
  example.tokens = tokenizer.EncodeWithSpecials(text, /*add_eos=*/true);
  example.loss_start = 0;
  return example;
}

LmTrainer::LmTrainer(const TransformerLM* lm,
                     std::vector<tensor::Tensor> trainable,
                     const Options& options)
    : lm_(lm),
      optimizer_(std::move(trainable),
                 tensor::AdamW::Options{.lr = options.lr,
                                        .weight_decay = options.weight_decay}),
      clip_norm_(options.clip_norm),
      batch_size_(options.batch_size),
      cosine_decay_(options.cosine_decay),
      min_lr_fraction_(options.min_lr_fraction),
      base_lr_(options.lr),
      on_example_(options.on_example),
      rng_(options.seed) {
  CHECK(lm != nullptr);
  CHECK_GT(batch_size_, size_t{0});
}

float LmTrainer::TrainSteps(const std::vector<LmExample>& examples,
                            size_t steps, const ForwardOptions& forward,
                            const CheckpointPolicy& policy) {
  CHECK(!examples.empty());
  OBS_SPAN("trainer/train_steps");
  uint64_t tokens_before = Metrics().tokens->Value();
  util::Stopwatch watch;
  std::vector<size_t> order(examples.size());
  size_t cursor = 0;
  std::vector<float> losses;
  losses.reserve(steps);
  size_t start_step = 0;

  if (policy.enabled() && policy.resume) {
    // Newest first; a snapshot that fails its CRC (or decodes but does not
    // belong to this run shape) is quarantined or skipped and the next
    // older one is tried. No usable snapshot -> train from scratch.
    auto snapshots = ListTrainCheckpoints(policy.dir);
    for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
      TrainState state;
      util::Status status = LoadTrainState(it->second, &state, &optimizer_);
      if (!status.ok()) {
        LOG_WARNING << "unusable snapshot " << it->second << ": "
                    << status.ToString();
        util::Status quarantine = util::QuarantineFile(it->second);
        if (!quarantine.ok()) {
          LOG_WARNING << "quarantine failed: " << quarantine.ToString();
        }
        continue;
      }
      if (state.total_steps != steps || state.order.size() != order.size() ||
          state.rng_state.empty()) {
        LOG_WARNING << "snapshot " << it->second
                    << " belongs to a different run shape; skipping";
        continue;
      }
      // LoadTrainState already validated the stream on a probe engine.
      CHECK(rng_.RestoreState(state.rng_state).ok());
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<size_t>(state.order[i]);
      }
      cursor = static_cast<size_t>(state.cursor);
      losses = std::move(state.losses);
      start_step = static_cast<size_t>(state.next_step);
      obs::Lineage::Get().Record("trainer: resumed from " + it->second);
      obs::Registry::Get().GetGauge("trainer/resume_step")
          ->Set(static_cast<double>(start_step));
      obs::Registry::Get().GetCounter("trainer/resumes")->Increment();
      LOG_INFO << "resuming training from " << it->second << " (step "
               << start_step << "/" << steps << ")";
      break;
    }
  }
  if (start_step == 0) {
    std::iota(order.begin(), order.end(), 0);
    rng_.Shuffle(&order);
    cursor = 0;
  }

  const bool faults_active = util::FaultRegistry::Get().active();
  for (size_t step = start_step; step < steps; ++step) {
    if (faults_active) {
      // "trainer/step" failpoint: `crash@N` terminates the process here
      // (simulating a hard kill between optimizer steps); `fail@N` returns
      // an error we treat as a graceful interrupt request.
      util::Status fault = FAULT_POINT("trainer/step");
      if (!fault.ok()) {
        LOG_WARNING << "training interrupted at step " << step << ": "
                    << fault.ToString();
        break;
      }
    }
    std::vector<const LmExample*> batch;
    batch.reserve(batch_size_);
    for (size_t b = 0; b < batch_size_; ++b) {
      if (cursor == order.size()) {
        rng_.Shuffle(&order);
        cursor = 0;
      }
      batch.push_back(&examples[order[cursor++]]);
    }
    if (cosine_decay_ && steps > 1) {
      float progress = static_cast<float>(step) /
                       static_cast<float>(steps - 1);
      float scale = min_lr_fraction_ +
                    (1.0f - min_lr_fraction_) * 0.5f *
                        (1.0f + std::cos(progress * 3.14159265f));
      optimizer_.set_lr(base_lr_ * scale);
    }
    losses.push_back(Step(batch, forward));
    size_t done = step + 1;
    if (policy.enabled() && done % policy.every_n_steps == 0 &&
        done < steps) {
      std::error_code ec;
      std::filesystem::create_directories(policy.dir, ec);
      TrainState state;
      state.next_step = done;
      state.total_steps = steps;
      state.order.assign(order.begin(), order.end());
      state.cursor = cursor;
      state.losses = losses;
      state.rng_state = rng_.SaveState();
      std::string path = TrainCheckpointPath(policy.dir, done);
      util::Status status = SaveTrainState(path, state, optimizer_);
      if (status.ok()) {
        obs::Registry::Get()
            .GetCounter("trainer/checkpoints_written")
            ->Increment();
        RotateTrainCheckpoints(policy.dir, policy.keep_last);
      } else {
        // Degrade gracefully: a failed snapshot costs durability, not the
        // run. The atomic writer guarantees no torn file was left behind.
        LOG_WARNING << "snapshot " << path
                    << " failed: " << status.ToString();
      }
    }
  }
  optimizer_.set_lr(base_lr_);
  double elapsed = watch.ElapsedSeconds();
  if (elapsed > 0.0) {
    Metrics().tokens_per_sec->Set(
        static_cast<double>(Metrics().tokens->Value() - tokens_before) /
        elapsed);
  }
  // Report the mean over the final quarter: representative of where
  // training ended rather than where it started.
  size_t window = std::max<size_t>(1, losses.size() / 4);
  double total = 0.0;
  for (size_t i = losses.size() - window; i < losses.size(); ++i) {
    total += losses[i];
  }
  return static_cast<float>(total / static_cast<double>(window));
}

float LmTrainer::TrainEpochs(const std::vector<LmExample>& examples,
                             size_t epochs, const ForwardOptions& forward) {
  size_t steps_per_epoch = (examples.size() + batch_size_ - 1) / batch_size_;
  return TrainSteps(examples, epochs * steps_per_epoch, forward);
}

float LmTrainer::Step(const std::vector<const LmExample*>& batch,
                      const ForwardOptions& forward) {
  CHECK(!batch.empty());
  TrainerMetrics& metrics = Metrics();
  int64_t step_begin_us = obs::NowMicros();
  size_t batch_tokens = 0;
  float inv = 1.0f / static_cast<float>(batch.size());
  double total = 0.0;
  for (const LmExample* example : batch) {
    if (on_example_) on_example_(*example);
    batch_tokens += example->tokens.size();
    tensor::Tensor loss =
        lm_->NextTokenLoss(example->tokens, example->loss_start, forward);
    total += loss.item();
    tensor::MulScalar(loss, inv).Backward();
  }
  tensor::ClipGradNorm(optimizer_.params(), clip_norm_);
  optimizer_.Step();
  optimizer_.ZeroGrad();
  float mean_loss = static_cast<float>(total * inv);
  metrics.steps->Increment();
  metrics.examples->Increment(batch.size());
  metrics.tokens->Increment(batch_tokens);
  metrics.step_seconds->Record(
      static_cast<double>(obs::NowMicros() - step_begin_us) * 1e-6);
  metrics.last_loss->Set(mean_loss);
  return mean_loss;
}

}  // namespace infuserki::model
