#include "serve/adapter_registry.h"

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace infuserki::serve {
namespace {

/// Payload tag guarding against framing a different artifact kind into an
/// adapter slot ("ADPT").
constexpr uint32_t kAdapterPayloadMagic = 0x41445054;

struct RegistryMetrics {
  obs::Counter* swap_published;
  obs::Counter* swap_rollbacks;
};

RegistryMetrics& Metrics() {
  // Magic-static resolve-once idiom (see prefix_cache.cc).
  static RegistryMetrics* metrics = [] {
    obs::Registry& registry = obs::Registry::Get();
    return new RegistryMetrics{
        registry.GetCounter("serve/swap_published"),
        registry.GetCounter("serve/swap_rollbacks")};
  }();
  return *metrics;
}

void WriteAdapter(util::BinaryWriter* writer,
                  const model::PositionWiseAdapter& adapter) {
  writer->WriteU32(kAdapterPayloadMagic);
  writer->WriteU32(static_cast<uint32_t>(adapter.attachment()));
  writer->WriteU64(adapter.model_dim());
  writer->WriteU64(adapter.bottleneck());
  writer->WriteU64(adapter.layers().size());
  for (const model::PositionWiseAdapter::LayerWeights& layer :
       adapter.layers()) {
    writer->WriteU64(static_cast<uint64_t>(layer.layer));
    writer->WriteFloatVector(layer.down_weight.impl()->data);
    writer->WriteFloatVector(layer.down_bias.impl()->data);
    writer->WriteFloatVector(layer.up_weight.impl()->data);
    writer->WriteFloatVector(layer.up_bias.impl()->data);
  }
}

util::StatusOr<std::shared_ptr<const model::PositionWiseAdapter>> ReadAdapter(
    const std::string& path) {
  util::BinaryReader reader(path);
  if (!reader.ok()) return reader.status();
  auto corrupt = [&path](const std::string& what) {
    return util::Status::DataLoss("adapter checkpoint " + path + ": " + what);
  };
  if (reader.ReadU32() != kAdapterPayloadMagic) {
    return corrupt("not an adapter payload");
  }
  uint32_t attachment_raw = reader.ReadU32();
  if (attachment_raw > 1) return corrupt("unknown attachment");
  uint64_t model_dim = reader.ReadU64();
  uint64_t bottleneck = reader.ReadU64();
  uint64_t num_layers = reader.ReadU64();
  if (!reader.ok()) return corrupt("truncated header");
  if (model_dim == 0 || bottleneck == 0 || num_layers == 0) {
    return corrupt("degenerate dimensions");
  }
  std::vector<model::PositionWiseAdapter::LayerWeights> layers;
  layers.reserve(num_layers);
  int previous_layer = -1;
  for (uint64_t i = 0; i < num_layers; ++i) {
    uint64_t layer_index = reader.ReadU64();
    std::vector<float> down_w = reader.ReadFloatVector();
    std::vector<float> down_b = reader.ReadFloatVector();
    std::vector<float> up_w = reader.ReadFloatVector();
    std::vector<float> up_b = reader.ReadFloatVector();
    if (!reader.ok()) return corrupt("truncated layer block");
    if (layer_index > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      return corrupt("layer index " + std::to_string(layer_index) +
                     " does not fit int");
    }
    if (static_cast<int>(layer_index) <= previous_layer) {
      return corrupt("layer indices not ascending");
    }
    previous_layer = static_cast<int>(layer_index);
    if (down_w.size() != bottleneck * model_dim ||
        down_b.size() != bottleneck ||
        up_w.size() != model_dim * bottleneck || up_b.size() != model_dim) {
      return corrupt("weight shape mismatch");
    }
    model::PositionWiseAdapter::LayerWeights weights;
    weights.layer = static_cast<int>(layer_index);
    weights.down_weight = tensor::Tensor::FromData(
        {bottleneck, model_dim}, std::move(down_w));
    weights.down_bias =
        tensor::Tensor::FromData({bottleneck}, std::move(down_b));
    weights.up_weight = tensor::Tensor::FromData(
        {model_dim, bottleneck}, std::move(up_w));
    weights.up_bias = tensor::Tensor::FromData({model_dim}, std::move(up_b));
    layers.push_back(std::move(weights));
  }
  return std::make_shared<const model::PositionWiseAdapter>(
      model_dim, bottleneck,
      static_cast<model::AdapterAttachment>(attachment_raw),
      std::move(layers));
}

}  // namespace

AdapterRegistry::AdapterRegistry(std::string dir, util::RetryOptions retry)
    : dir_(std::move(dir)), retry_(retry) {}

std::string AdapterRegistry::VersionPath(uint64_t sequence) const {
  char name[32];
  std::snprintf(name, sizeof(name), "adapter_%08llu.bin",
                static_cast<unsigned long long>(sequence));
  return dir_ + "/" + name;
}

std::vector<uint64_t> AdapterRegistry::ListSequences() const {
  std::vector<uint64_t> found;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return found;
  for (const auto& entry : it) {
    std::string name = entry.path().filename().string();
    unsigned long long sequence = 0;
    char trailer = '\0';
    // Exactly "adapter_<digits>.bin": the trailing %c rejects ".bin.tmp"
    // and ".bin.corrupt".
    if (std::sscanf(name.c_str(), "adapter_%llu.bin%c", &sequence,
                    &trailer) != 1) {
      continue;
    }
    found.push_back(sequence);
  }
  std::sort(found.begin(), found.end());
  return found;
}

util::StatusOr<AdapterVersion> AdapterRegistry::Publish(
    std::shared_ptr<const model::PositionWiseAdapter> adapter) {
  if (adapter == nullptr) {
    return util::Status::InvalidArgument(
        "cannot publish a null adapter (sequence 0, the base model, is "
        "implicit and never stored)");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return util::Status::Internal("cannot create registry dir " + dir_ +
                                  ": " + ec.message());
  }
  std::vector<uint64_t> existing = ListSequences();
  uint64_t sequence = existing.empty() ? 1 : existing.back() + 1;
  AdapterVersion version;
  version.sequence = sequence;
  version.path = VersionPath(sequence);
  version.adapter = std::move(adapter);
  util::BinaryWriter writer(version.path);
  WriteAdapter(&writer, *version.adapter);
  RETURN_IF_ERROR(writer.Finish());
  Metrics().swap_published->Increment();
  return version;
}

util::StatusOr<AdapterVersion> AdapterRegistry::LoadAttempt(
    uint64_t sequence, const std::string& path) {
  std::shared_ptr<const model::PositionWiseAdapter> adapter;
  util::Status status = util::RetryWithBackoff(
      [&]() -> util::Status {
        RETURN_IF_ERROR(FAULT_POINT("serve/adapter_load"));
        util::StatusOr<std::shared_ptr<const model::PositionWiseAdapter>>
            loaded = ReadAdapter(path);
        RETURN_IF_ERROR(loaded.status());
        adapter = std::move(loaded).value();
        return util::Status::OK();
      },
      retry_, "adapter load " + path);
  RETURN_IF_ERROR(status);
  AdapterVersion version;
  version.sequence = sequence;
  version.path = path;
  version.adapter = std::move(adapter);
  return version;
}

util::StatusOr<AdapterVersion> AdapterRegistry::Load(uint64_t sequence) {
  std::string path = VersionPath(sequence);
  util::StatusOr<AdapterVersion> version = LoadAttempt(sequence, path);
  if (!version.ok()) {
    util::Status quarantined = util::QuarantineFile(path);
    if (!quarantined.ok() &&
        quarantined.code() != util::StatusCode::kNotFound) {
      LOG_WARNING << "failed to quarantine " << path << ": "
                  << quarantined.message();
    }
  }
  return version;
}

util::StatusOr<AdapterVersion> AdapterRegistry::LoadLatest() {
  std::vector<uint64_t> sequences = ListSequences();
  if (sequences.empty()) {
    return util::Status::NotFound("no adapter versions published in " + dir_);
  }
  util::Status last_error = util::Status::OK();
  // Newest first; every failed candidate is quarantined so the next walk
  // does not trip over it again, and the walk "rolls back" to the next
  // older version (DESIGN.md §12 rollback state machine).
  for (auto it = sequences.rbegin(); it != sequences.rend(); ++it) {
    util::StatusOr<AdapterVersion> version = Load(*it);
    if (version.ok()) return version;
    last_error = version.status();
    Metrics().swap_rollbacks->Increment();
    LOG_WARNING << "adapter version " << *it << " failed to load ("
                << last_error.message() << "); quarantined, rolling back";
  }
  return util::Status::Unavailable(
      "every published adapter version failed to load; last error: " +
      last_error.message());
}

}  // namespace infuserki::serve
