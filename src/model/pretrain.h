#ifndef INFUSERKI_MODEL_PRETRAIN_H_
#define INFUSERKI_MODEL_PRETRAIN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/config.h"
#include "model/train_state.h"
#include "model/transformer.h"
#include "text/tokenizer.h"
#include "util/status.h"

namespace infuserki::model {

/// Everything a base-model pretraining run depends on. The fingerprint of
/// this spec keys the on-disk model cache, so identical specs across bench
/// binaries reuse one pretrained model.
struct PretrainSpec {
  TransformerConfig arch;  // vocab_size is filled in from the corpus

  /// Fully-supervised documents (knowledge statements, filler prose).
  std::vector<std::string> plain_docs;

  /// Instruction documents (QA with response-only loss).
  std::vector<std::pair<std::string, std::string>> instruction_docs;

  /// Additional text that must be covered by the vocabulary but is not
  /// trained on (e.g. questions about facts the base model must NOT know).
  std::vector<std::string> extra_vocab_docs;

  size_t steps = 2500;
  size_t batch_size = 8;
  float lr = 3e-3f;
  uint64_t seed = 7;

  /// Directory for cached models; empty disables caching.
  std::string cache_dir;

  /// Mid-run durability (see model/train_state.h). The policy does not
  /// change what is trained, only how the run survives crashes, so it is
  /// deliberately excluded from Fingerprint(): an interrupted run and a
  /// clean one produce (and cache) the same model. Snapshots go to
  /// `checkpoint.dir + "/pretrain_<fingerprint>"`.
  CheckpointPolicy checkpoint;

  uint64_t Fingerprint() const;
};

/// A pretrained base model with its tokenizer.
struct PretrainedModel {
  std::unique_ptr<TransformerLM> lm;
  text::Tokenizer tokenizer;
  float final_loss = 0.0f;  // 0 when loaded from cache
};

/// Cache file the spec would load from / save to:
/// `<cache_dir>/base_<fingerprint-hex>.ckpt`.
std::string PretrainCachePath(const PretrainSpec& spec);

/// Strict cache-file loader. Returns kNotFound for a missing file and an
/// error (never a half-built model) for anything unreadable: torn frame,
/// CRC mismatch, wrong magic, fingerprint that contradicts the file name,
/// implausible vocabulary size, undecodable tokenizer or parameters.
util::Status LoadCachedModel(const std::string& path,
                             const PretrainSpec& spec, PretrainedModel* out);

/// Trains the base LM on the spec's corpus, or loads it from the cache when
/// a model with the same fingerprint exists. The returned model's
/// parameters are left trainable (callers freeze them for PEFT).
///
/// Robustness: a corrupt cache file is quarantined (renamed `.corrupt`)
/// and the model is retrained from scratch; with `checkpoint` enabled the
/// training loop itself snapshots and resumes per the spec's policy.
PretrainedModel PretrainOrLoad(const PretrainSpec& spec);

}  // namespace infuserki::model

#endif  // INFUSERKI_MODEL_PRETRAIN_H_
