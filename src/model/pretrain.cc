#include "model/pretrain.h"

#include <filesystem>

#include "model/trainer.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/checkpoint.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/serialize.h"
#include "util/stopwatch.h"

namespace infuserki::model {
namespace {

constexpr uint32_t kCacheMagic = 0x494b4d31;  // "IKM1"

uint64_t HashString(uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  h ^= 0xff;
  h *= 0x100000001b3ull;
  return h;
}

uint64_t HashValue(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string FingerprintHex(const PretrainSpec& spec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(spec.Fingerprint()));
  return buf;
}

/// An obviously-corrupt vocabulary size: larger than any corpus these
/// experiments build, small enough that a bad value cannot make the model
/// constructor allocate gigabytes before the mismatch is noticed.
constexpr uint64_t kMaxPlausibleVocab = uint64_t{1} << 24;

bool TryLoadFromCache(const PretrainSpec& spec, PretrainedModel* out) {
  std::string path = PretrainCachePath(spec);
  util::Status status = LoadCachedModel(path, spec, out);
  if (status.ok()) {
    obs::Lineage::Get().Record("pretrain: loaded cache " + path);
    LOG_INFO << "loaded pretrained base model from " << path;
    return true;
  }
  // A missing file is the ordinary cache miss; anything else means the
  // file exists but cannot be trusted. Quarantine it so the retrained
  // replacement does not collide with the corrupt bytes, and so the
  // operator can inspect what went wrong.
  if (status.code() != util::StatusCode::kNotFound) {
    LOG_WARNING << "unusable model cache " << path << ": "
                << status.ToString() << "; retraining from scratch";
    util::Status quarantine = util::QuarantineFile(path);
    if (!quarantine.ok()) {
      LOG_WARNING << "quarantine failed: " << quarantine.ToString();
    }
  }
  return false;
}

void SaveToCache(const PretrainSpec& spec, const PretrainedModel& model) {
  std::error_code ec;
  std::filesystem::create_directories(spec.cache_dir, ec);
  std::string path = PretrainCachePath(spec);
  util::BinaryWriter writer(path, "pretrain/cache_write");
  writer.WriteU32(kCacheMagic);
  writer.WriteU64(spec.Fingerprint());
  writer.WriteU64(model.tokenizer.vocab_size());
  model.tokenizer.Serialize(&writer);
  tensor::WriteParameters(model.lm->NamedParameters(), &writer);
  util::Status status = writer.Finish();
  if (!status.ok()) {
    LOG_WARNING << "model cache write failed: " << status;
    return;
  }
  LOG_INFO << "cached pretrained base model at " << path;
}

}  // namespace

std::string PretrainCachePath(const PretrainSpec& spec) {
  return spec.cache_dir + "/base_" + FingerprintHex(spec) + ".ckpt";
}

util::Status LoadCachedModel(const std::string& path,
                             const PretrainSpec& spec, PretrainedModel* out) {
  util::BinaryReader reader(path);
  // NotFound = cache miss; kDataLoss = torn/corrupt frame. Either way the
  // frame CRC has already been verified before any field below is parsed.
  if (!reader.ok()) return reader.status();
  uint32_t magic = reader.ReadU32();
  if (!reader.ok() || magic != kCacheMagic) {
    return util::Status::DataLoss("bad model-cache magic in " + path);
  }
  uint64_t stored_fingerprint = reader.ReadU64();
  uint64_t vocab = reader.ReadU64();
  if (!reader.ok()) {
    return util::Status::DataLoss("truncated model-cache header in " + path);
  }
  if (stored_fingerprint != spec.Fingerprint()) {
    // The fingerprint is embedded in the file name, so a mismatch means the
    // content contradicts the name — corruption, not staleness.
    return util::Status::DataLoss("fingerprint mismatch in " + path);
  }
  if (vocab == 0 || vocab > kMaxPlausibleVocab) {
    return util::Status::DataLoss("implausible vocabulary size " +
                                  std::to_string(vocab) + " in " + path);
  }
  auto tokenizer = text::Tokenizer::Deserialize(&reader);
  if (!tokenizer.ok()) return tokenizer.status();
  if (tokenizer.value().vocab_size() != vocab) {
    return util::Status::DataLoss("vocabulary size mismatch in " + path);
  }
  TransformerConfig arch = spec.arch;
  arch.vocab_size = vocab;
  util::Rng init_rng(spec.seed);
  auto lm = std::make_unique<TransformerLM>(arch, &init_rng);
  RETURN_IF_ERROR(tensor::ReadParametersInto(lm->NamedParameters(), &reader));
  out->lm = std::move(lm);
  out->tokenizer = std::move(tokenizer).value();
  out->final_loss = 0.0f;
  return util::Status::OK();
}

uint64_t PretrainSpec::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ull;
  h = HashValue(h, arch.Fingerprint());
  for (const std::string& doc : plain_docs) h = HashString(h, doc);
  for (const auto& [prompt, response] : instruction_docs) {
    h = HashString(h, prompt);
    h = HashString(h, response);
  }
  for (const std::string& doc : extra_vocab_docs) h = HashString(h, doc);
  h = HashValue(h, steps);
  h = HashValue(h, batch_size);
  h = HashValue(h, static_cast<uint64_t>(lr * 1e9f));
  h = HashValue(h, seed);
  return h;
}

PretrainedModel PretrainOrLoad(const PretrainSpec& spec) {
  OBS_SPAN("pretrain");
  PretrainedModel model;
  {
    OBS_SPAN("pretrain/cache_load");
    if (!spec.cache_dir.empty() && TryLoadFromCache(spec, &model)) {
      return model;
    }
  }

  // Vocabulary covers everything the experiments will ever tokenize.
  std::vector<std::string> vocab_corpus = spec.plain_docs;
  for (const auto& [prompt, response] : spec.instruction_docs) {
    vocab_corpus.push_back(prompt);
    vocab_corpus.push_back(response);
  }
  vocab_corpus.insert(vocab_corpus.end(), spec.extra_vocab_docs.begin(),
                      spec.extra_vocab_docs.end());
  model.tokenizer = text::Tokenizer::Build(vocab_corpus);

  TransformerConfig arch = spec.arch;
  arch.vocab_size = model.tokenizer.vocab_size();
  util::Rng init_rng(spec.seed);
  model.lm = std::make_unique<TransformerLM>(arch, &init_rng);
  LOG_INFO << "pretraining base model " << arch.ToString() << " ("
           << model.lm->NumParameters() << " params, " << spec.steps
           << " steps)";

  std::vector<LmExample> examples;
  examples.reserve(spec.plain_docs.size() + spec.instruction_docs.size());
  for (const std::string& doc : spec.plain_docs) {
    examples.push_back(MakePlainExample(model.tokenizer, doc));
  }
  for (const auto& [prompt, response] : spec.instruction_docs) {
    examples.push_back(
        MakeInstructionExample(model.tokenizer, prompt, response));
  }
  CHECK(!examples.empty()) << "pretraining corpus is empty";

  LmTrainer::Options trainer_options;
  trainer_options.lr = spec.lr;
  trainer_options.batch_size = spec.batch_size;
  trainer_options.seed = spec.seed + 1;
  LmTrainer trainer(model.lm.get(), model.lm->Parameters(), trainer_options);
  CheckpointPolicy policy = spec.checkpoint;
  if (policy.enabled()) {
    // Keyed by fingerprint so concurrent runs with different specs never
    // resume from each other's snapshots.
    policy.dir += "/pretrain_" + FingerprintHex(spec);
  }
  util::Stopwatch watch;
  {
    OBS_SPAN("pretrain/train");
    model.final_loss = trainer.TrainSteps(examples, spec.steps, {}, policy);
  }
  double train_seconds = watch.Lap();
  obs::Registry::Get().GetGauge("pretrain/train_seconds")->Set(train_seconds);
  obs::Registry::Get().GetGauge("pretrain/final_loss")->Set(model.final_loss);
  LOG_INFO << "pretraining done in " << train_seconds
           << "s, final-window loss " << model.final_loss;

  if (!spec.cache_dir.empty()) {
    OBS_SPAN("pretrain/cache_save");
    SaveToCache(spec, model);
  }
  return model;
}

}  // namespace infuserki::model
