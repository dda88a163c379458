#include "core/infuserki.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "model/trainer.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace infuserki::core {

using tensor::Tensor;

int FindSubsequence(const std::vector<int>& haystack,
                    const std::vector<int>& needle) {
  if (needle.empty() || needle.size() > haystack.size()) return -1;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (size_t j = 0; j < needle.size(); ++j) {
      if (haystack[i + j] != needle[j]) {
        match = false;
        break;
      }
    }
    if (match) return static_cast<int>(i);
  }
  return -1;
}

namespace {

/// The mini-batch epoch loop of the Infuser and RC phases. Each epoch
/// reshuffles the previous epoch's item order in place; every item's loss
/// is scaled by 1/batch_size (a short final batch too), and each batch ends
/// with a clip to norm 1, an AdamW step and a gradient reset. Returns the
/// last epoch's mean batch loss. It stays off LmTrainer on purpose: that
/// trainer cycles one order across epochs and scales by the actual batch
/// size, which would change the trained bits, and it records the trainer/*
/// counters that the benchmark reads as the QA phase's work.
float TrainItemEpochs(size_t num_items, size_t epochs, size_t batch_size,
                      std::vector<Tensor> params, float lr, util::Rng* rng,
                      const std::function<Tensor(size_t)>& item_loss) {
  CHECK_GT(num_items, size_t{0});
  tensor::AdamW optimizer(std::move(params),
                          {.lr = lr, .weight_decay = 0.0f});
  std::vector<size_t> order(num_items);
  std::iota(order.begin(), order.end(), 0);
  size_t steps_per_epoch = (num_items + batch_size - 1) / batch_size;
  float inv = 1.0f / static_cast<float>(batch_size);
  double last_epoch_loss = 0.0;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(&order);
    size_t cursor = 0;
    double epoch_loss = 0.0;
    for (size_t step = 0; step < steps_per_epoch; ++step) {
      size_t batch = 0;
      double batch_loss = 0.0;
      for (; batch < batch_size && cursor < num_items; ++batch, ++cursor) {
        Tensor loss = item_loss(order[cursor]);
        batch_loss += loss.item();
        tensor::MulScalar(loss, inv).Backward();
      }
      tensor::ClipGradNorm(optimizer.params(), 1.0f);
      optimizer.Step();
      optimizer.ZeroGrad();
      epoch_loss += batch_loss / static_cast<double>(batch);
    }
    last_epoch_loss = epoch_loss / static_cast<double>(steps_per_epoch);
  }
  return static_cast<float>(last_epoch_loss);
}

}  // namespace

InfuserKi::InfuserKi(model::TransformerLM* lm,
                     const InfuserKiOptions& options)
    : lm_(lm),
      options_(options),
      stack_(lm->config().dim, lm->config().num_layers, options.adapters) {
  CHECK(lm != nullptr);
}

model::ForwardOptions InfuserKi::Forward() {
  model::ForwardOptions forward;
  forward.hook = &stack_;
  return forward;
}

size_t InfuserKi::NumTrainableParameters() const {
  size_t n = stack_.NumParameters();
  if (rc_proj_ != nullptr) n += rc_proj_->NumParameters();
  if (rc_rel_emb_ != nullptr) n += rc_rel_emb_->NumParameters();
  return n;
}

void InfuserKi::Train(const KiTrainData& data) {
  CHECK(data.tokenizer != nullptr);
  CHECK(data.kg != nullptr);
  obs::ScopedSpan span("method/" + name() + "/train");
  util::Stopwatch watch;
  float infuser_loss = 0.0f;
  if (options_.infuser_pretrain && options_.adapters.use_infuser) {
    infuser_loss = TrainInfuser(data);
  }
  double infuser_seconds = watch.Lap();
  float qa_loss = TrainQa(data);
  double qa_seconds = watch.Lap();
  float rc_loss = 0.0f;
  if (!data.unknown_statements.empty()) {
    rc_loss = TrainRc(data);
  }
  LOG_INFO << "InfuserKI training done in " << watch.ElapsedSeconds()
           << "s (infuser " << infuser_seconds << "s, qa " << qa_seconds
           << "s, rc " << watch.Lap() << "s; L_In=" << infuser_loss
           << ", L_QA=" << qa_loss << ", L_RC-phase=" << rc_loss << ")";
}

float InfuserKi::TrainInfuser(const KiTrainData& data) {
  OBS_SPAN("infuserki/train_infuser");
  // Balanced mix: every known sample (label 0, "already acquired") paired
  // with an equal number of unknown samples (label 1, "new knowledge").
  struct Item {
    std::vector<int> tokens;
    float label;
  };
  std::vector<Item> items;
  size_t pairs = std::max(data.known_qa.size(), data.unknown_qa.size());
  if (data.known_qa.empty() || data.unknown_qa.empty()) {
    LOG_WARNING << "Infuser tuning skipped: no balanced samples available";
    return 0.0f;
  }
  // Items use prompt+continuation sequences: evaluation scores every MCQ
  // option as a continuation, so the gate must discriminate on exactly
  // that distribution — including *wrong* continuations. The label tracks
  // whether the base model knows the fact, not whether the shown
  // continuation is correct.
  util::Rng aug_rng(options_.seed + 10);
  auto append = [&](const kg::QaSample& sample, float label) {
    items.push_back({data.tokenizer->EncodeWithSpecials(
                         sample.prompt + " " + sample.response,
                         /*add_eos=*/false),
                     label});
    int wrong = (sample.mcq.correct + 1 +
                 static_cast<int>(aug_rng.UniformInt(0, 2))) %
                4;
    items.push_back({data.tokenizer->EncodeWithSpecials(
                         sample.prompt + " " +
                             sample.mcq.options[static_cast<size_t>(wrong)],
                         /*add_eos=*/false),
                     label});
  };
  // Balanced mix: the shorter class cycles so both classes contribute the
  // same number of items.
  for (size_t i = 0; i < pairs; ++i) {
    append(data.known_qa[i % data.known_qa.size()], 0.0f);
    append(data.unknown_qa[i % data.unknown_qa.size()], 1.0f);
  }

  model::ForwardOptions forward = Forward();
  util::Rng rng(options_.seed);
  return TrainItemEpochs(
      items.size(), options_.infuser_epochs, options_.batch_size,
      stack_.InfuserParameters(), options_.lr, &rng, [&](size_t i) {
        // Forward the prompt; the hook collects per-layer Infuser logits.
        (void)lm_->Hidden(items[i].tokens, forward);
        const std::vector<Tensor>& logits = stack_.infuser_logits();
        CHECK(!logits.empty());
        Tensor all = logits[0];
        for (size_t l = 1; l < logits.size(); ++l) {
          all = tensor::Concat1d(all, logits[l]);
        }
        std::vector<float> labels(all.size(), items[i].label);
        return tensor::BceWithLogits(all, labels);
      });
}

float InfuserKi::TrainQa(const KiTrainData& data) {
  OBS_SPAN("infuserki/train_qa");
  // The same modest mix of known samples every method receives (§4.1).
  // Known-replay examples run with the gate forced open so the adapter
  // itself learns to preserve known answers, making the method robust to
  // residual gate errors at inference.
  std::vector<model::LmExample> examples = BuildInstructionExamples(
      data, /*include_known=*/true, /*include_yesno=*/true);

  // The base model stays frozen. A pretrained Infuser is also frozen here —
  // letting the QA gradient keep moving it erodes the known/unknown
  // separation it learned in phase 1. In the w/o-RL ablation the QA loss is
  // the gate's only training signal, so it stays trainable.
  std::vector<Tensor> params = stack_.AdapterParameters();
  if (options_.adapters.use_infuser && !options_.infuser_pretrain) {
    for (const Tensor& t : stack_.InfuserParameters()) params.push_back(t);
  }
  model::LmTrainer::Options trainer_options{.lr = options_.lr,
                                            .batch_size = options_.batch_size,
                                            .seed = options_.seed + 1};
  if (options_.adapters.use_infuser && options_.replay_open_gate) {
    trainer_options.on_example = [this](const model::LmExample& example) {
      stack_.set_gate_override(example.tag == kKnownReplayTag ? 1.0f : -1.0f);
    };
  }
  model::LmTrainer trainer(lm_, std::move(params), trainer_options);
  float loss = trainer.TrainEpochs(examples, options_.qa_epochs, Forward());
  stack_.set_gate_override(-1.0f);
  return loss;
}

float InfuserKi::TrainRc(const KiTrainData& data) {
  OBS_SPAN("infuserki/train_rc");
  util::Rng rng(options_.seed + 2);
  if (options_.use_rc && rc_proj_ == nullptr) {
    rc_proj_ = std::make_unique<tensor::Linear>(
        2 * lm_->config().dim, options_.rc_dim, &rng);
    rc_rel_emb_ = std::make_unique<tensor::Embedding>(
        data.kg->num_relations(), options_.rc_dim, &rng,
        /*init_stddev=*/0.1f);
  }

  struct Item {
    std::vector<int> tokens;      // <bos> statement <eos>
    std::vector<int> head_span;   // token positions of the head mention
    std::vector<int> tail_span;   // token positions of the tail mention
    int relation = 0;
  };
  std::vector<Item> items;
  for (const kg::StatementSample& statement : data.unknown_statements) {
    Item item;
    item.tokens = data.tokenizer->EncodeWithSpecials(statement.text,
                                                     /*add_eos=*/true);
    const kg::Triplet& triplet =
        data.kg->triplets()[statement.triplet_index];
    item.relation = triplet.relation;
    // Positions are relative to the model input, which drops the final
    // token (see TransformerLM::NextTokenLoss).
    std::vector<int> inputs(item.tokens.begin(), item.tokens.end() - 1);
    auto span_of = [&](const std::string& name) {
      std::vector<int> ids = data.tokenizer->Encode(name);
      int start = FindSubsequence(inputs, ids);
      std::vector<int> span;
      if (start < 0) {
        // Mention not found verbatim (should not happen with template
        // statements); fall back to the whole sequence.
        span.resize(inputs.size());
        std::iota(span.begin(), span.end(), 0);
      } else {
        for (size_t j = 0; j < ids.size(); ++j) {
          span.push_back(start + static_cast<int>(j));
        }
      }
      return span;
    };
    item.head_span = span_of(data.kg->entity(triplet.head).name);
    item.tail_span = span_of(data.kg->entity(triplet.tail).name);
    items.push_back(std::move(item));
  }
  if (items.empty()) return 0.0f;

  std::vector<Tensor> params = stack_.AdapterParameters();
  if (options_.adapters.use_infuser && !options_.infuser_pretrain) {
    for (const Tensor& t : stack_.InfuserParameters()) params.push_back(t);
  }
  if (options_.use_rc) {
    for (const Tensor& t : rc_proj_->Parameters()) params.push_back(t);
    for (const Tensor& t : rc_rel_emb_->Parameters()) params.push_back(t);
  }
  model::ForwardOptions forward = Forward();
  return TrainItemEpochs(
      items.size(), options_.rc_epochs, options_.batch_size, std::move(params),
      options_.lr * options_.rc_lr_scale, &rng, [&](size_t i) {
        const Item& item = items[i];
        // Next-token loss over the statement (Eq. 10); the same forward
        // leaves H_A^L in the stack for RC pooling.
        Tensor loss = lm_->NextTokenLoss(item.tokens, 0, forward);
        if (!options_.use_rc) return loss;
        const Tensor& adapter_out = stack_.last_adapter_output();
        CHECK(adapter_out.defined());
        Tensor v_head = tensor::MeanAxis0(
            tensor::GatherRows(adapter_out, item.head_span));
        Tensor v_tail = tensor::MeanAxis0(
            tensor::GatherRows(adapter_out, item.tail_span));
        Tensor v_rel = tensor::Reshape(tensor::Concat1d(v_head, v_tail),
                                       {1, 2 * lm_->config().dim});
        Tensor scores = tensor::MulScalar(
            tensor::MatmulNT(rc_proj_->Forward(v_rel), rc_rel_emb_->table()),
            1.0f / options_.tau);
        Tensor rc = tensor::CrossEntropy(scores, {item.relation});
        return tensor::Add(loss, tensor::MulScalar(rc, options_.lambda_rc));
      });
}

}  // namespace infuserki::core
