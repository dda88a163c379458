// Unit gate for the versioned adapter registry and the exportable
// position-wise adapter (DESIGN.md §12): round-trip bit-exactness, the
// gated-export precondition, and the quarantine + rollback state machine
// under injected `serve/adapter_load` faults.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/adapter_stack.h"
#include "model/serve_adapter.h"
#include "obs/metrics.h"
#include "serve/adapter_registry.h"
#include "tensor/tensor.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace infuserki::serve {
namespace {

constexpr size_t kDim = 16;
constexpr size_t kLayers = 3;

/// Fresh per-test registry directory (removed up front so reruns and
/// quarantine leftovers never leak between tests).
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/adapter_registry_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

core::AdapterStackOptions UngatedOptions() {
  core::AdapterStackOptions options;
  options.first_layer = 1;
  options.last_layer = 2;
  options.bottleneck = 4;
  options.use_infuser = false;  // w/o-Ro: the exportable form
  return options;
}

/// Seeds the stack with nonzero weights: a fresh stack's up-projections
/// are zero-initialized, which would make every delta — and thus every
/// bit-exactness comparison — trivially zero.
void Perturb(core::KnowledgeAdapterStack* stack, uint64_t seed) {
  util::Rng rng(seed);
  for (tensor::Tensor& t : stack->AdapterParameters()) {
    for (float& v : t.impl()->data) {
      v = static_cast<float>(rng.Normal(0.0, 0.1));
    }
  }
}

std::shared_ptr<const model::PositionWiseAdapter> Export(uint64_t seed) {
  core::KnowledgeAdapterStack stack(kDim, kLayers, UngatedOptions());
  Perturb(&stack, seed);
  auto exported = stack.ExportPositionWise();
  EXPECT_TRUE(exported.ok()) << exported.status();
  return std::move(exported).value();
}

void ExpectSameWeights(const model::PositionWiseAdapter& a,
                       const model::PositionWiseAdapter& b) {
  ASSERT_EQ(a.layers().size(), b.layers().size());
  ASSERT_EQ(a.attachment(), b.attachment());
  ASSERT_EQ(a.model_dim(), b.model_dim());
  ASSERT_EQ(a.bottleneck(), b.bottleneck());
  for (size_t i = 0; i < a.layers().size(); ++i) {
    const auto& la = a.layers()[i];
    const auto& lb = b.layers()[i];
    EXPECT_EQ(la.layer, lb.layer);
    EXPECT_EQ(la.down_weight.impl()->data, lb.down_weight.impl()->data);
    EXPECT_EQ(la.down_bias.impl()->data, lb.down_bias.impl()->data);
    EXPECT_EQ(la.up_weight.impl()->data, lb.up_weight.impl()->data);
    EXPECT_EQ(la.up_bias.impl()->data, lb.up_bias.impl()->data);
  }
}

class AdapterRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultRegistry::Get().Clear(); }
  void TearDown() override { util::FaultRegistry::Get().Clear(); }

  uint64_t Rollbacks() {
    return obs::Registry::Get().GetCounter("serve/swap_rollbacks")->Value();
  }
};

TEST_F(AdapterRegistryTest, GatedStackExportIsRejected) {
  core::AdapterStackOptions options;
  options.first_layer = 1;
  options.bottleneck = 4;
  options.use_infuser = true;  // gated: sequence-stateful, not exportable
  core::KnowledgeAdapterStack stack(kDim, kLayers, options);
  auto exported = stack.ExportPositionWise();
  EXPECT_EQ(exported.status().code(),
            util::StatusCode::kFailedPrecondition)
      << exported.status();
}

TEST_F(AdapterRegistryTest, ExportMatchesStackDeltasExactly) {
  core::KnowledgeAdapterStack stack(kDim, kLayers, UngatedOptions());
  Perturb(&stack, 11);
  auto adapter = stack.ExportPositionWise();
  ASSERT_TRUE(adapter.ok()) << adapter.status();

  util::Rng rng(12);
  std::vector<tensor::Tensor> inputs;
  for (size_t l = 0; l < kLayers; ++l) {
    inputs.push_back(tensor::Tensor::Randn({3, kDim}, &rng));
  }
  stack.BeginForward();
  model::PositionWiseAdapterHook hook(adapter.value().get());
  hook.BeginForward();
  for (size_t l = 0; l < kLayers; ++l) {
    tensor::Tensor from_stack = stack.Delta(
        model::AdapterAttachment::kFfn, static_cast<int>(l), inputs[l]);
    tensor::Tensor from_export = hook.Delta(
        model::AdapterAttachment::kFfn, static_cast<int>(l), inputs[l]);
    ASSERT_EQ(from_stack.defined(), from_export.defined()) << "layer " << l;
    if (!from_stack.defined()) continue;
    // Exact float equality: the export must be the same arithmetic, not an
    // approximation of it.
    EXPECT_EQ(from_stack.impl()->data, from_export.impl()->data)
        << "layer " << l;
  }
}

TEST_F(AdapterRegistryTest, FindLocatesSparseLayersWithoutDenseTable) {
  // The largest index an int holds must cost one table entry, not 2^31.
  const int far = std::numeric_limits<int>::max();
  std::vector<model::PositionWiseAdapter::LayerWeights> layers(2);
  layers[0].layer = 2;
  layers[1].layer = far;
  for (model::PositionWiseAdapter::LayerWeights& w : layers) {
    w.down_weight = tensor::Tensor::Zeros({4, kDim});
    w.down_bias = tensor::Tensor::Zeros({4});
    w.up_weight = tensor::Tensor::Zeros({kDim, 4});
    w.up_bias = tensor::Tensor::Zeros({kDim});
  }
  model::PositionWiseAdapter adapter(kDim, 4, model::AdapterAttachment::kFfn,
                                     std::move(layers));
  ASSERT_NE(adapter.Find(2), nullptr);
  EXPECT_EQ(adapter.Find(2)->layer, 2);
  ASSERT_NE(adapter.Find(far), nullptr);
  EXPECT_EQ(adapter.Find(far)->layer, far);
  for (int layer : {-1, 0, 1, 3, far - 1}) {
    EXPECT_EQ(adapter.Find(layer), nullptr) << "layer " << layer;
  }
}

TEST_F(AdapterRegistryTest, LayerIndexPastIntIsQuarantined) {
  std::string dir = FreshDir("wide_layer");
  AdapterRegistry registry(dir, {.max_attempts = 1, .base_delay_ms = 1});
  auto good = registry.Publish(Export(71));
  ASSERT_TRUE(good.ok()) << good.status();

  // A CRC-valid version 2 whose one layer index is 2^32 + 1: cast to int
  // it would silently become layer 1.
  {
    util::BinaryWriter writer(registry.VersionPath(2));
    writer.WriteU32(0x41445054);  // "ADPT" payload magic
    writer.WriteU32(0);           // AdapterAttachment::kFfn
    writer.WriteU64(kDim);
    writer.WriteU64(4);  // bottleneck
    writer.WriteU64(1);  // adapted layers
    writer.WriteU64((uint64_t{1} << 32) + 1);
    writer.WriteFloatVector(std::vector<float>(4 * kDim, 0.0f));
    writer.WriteFloatVector(std::vector<float>(4, 0.0f));
    writer.WriteFloatVector(std::vector<float>(kDim * 4, 0.0f));
    writer.WriteFloatVector(std::vector<float>(kDim, 0.0f));
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto loaded = registry.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().sequence, uint64_t{1});
  EXPECT_TRUE(std::filesystem::exists(registry.VersionPath(2) + ".corrupt"));
}

TEST_F(AdapterRegistryTest, PublishLoadRoundTripIsBitExact) {
  AdapterRegistry registry(FreshDir("roundtrip"));
  auto adapter = Export(21);

  auto published = registry.Publish(adapter);
  ASSERT_TRUE(published.ok()) << published.status();
  EXPECT_EQ(published.value().sequence, uint64_t{1});
  EXPECT_EQ(published.value().adapter.get(), adapter.get());

  auto loaded = registry.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().sequence, uint64_t{1});
  ExpectSameWeights(*adapter, *loaded.value().adapter);

  // Sequences are strictly increasing and listable.
  auto second = registry.Publish(Export(22));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.value().sequence, uint64_t{2});
  EXPECT_EQ(registry.ListSequences(), (std::vector<uint64_t>{1, 2}));
}

TEST_F(AdapterRegistryTest, PublishingNullAdapterIsInvalid) {
  AdapterRegistry registry(FreshDir("null"));
  auto published = registry.Publish(nullptr);
  EXPECT_EQ(published.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(AdapterRegistryTest, EmptyRegistryReportsNotFound) {
  AdapterRegistry registry(FreshDir("empty"));
  auto loaded = registry.LoadLatest();
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound)
      << loaded.status();
}

TEST_F(AdapterRegistryTest, CorruptLatestIsQuarantinedAndRolledBack) {
  std::string dir = FreshDir("corrupt");
  AdapterRegistry registry(dir);
  ASSERT_TRUE(registry.Publish(Export(31)).ok());
  auto good = registry.Publish(Export(32));
  ASSERT_TRUE(good.ok());

  // Hand-write a garbage "newest version" the CRC frame must reject.
  std::string bogus = registry.VersionPath(3);
  {
    std::ofstream out(bogus, std::ios::binary);
    out << "not an adapter checkpoint";
  }
  ASSERT_EQ(registry.ListSequences().size(), size_t{3});

  uint64_t rollbacks_before = Rollbacks();
  auto loaded = registry.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // Rolled back to the newest GOOD version; the corrupt file is moved
  // aside and never offered again.
  EXPECT_EQ(loaded.value().sequence, uint64_t{2});
  ExpectSameWeights(*good.value().adapter, *loaded.value().adapter);
  EXPECT_GE(Rollbacks(), rollbacks_before + 1);
  EXPECT_FALSE(std::filesystem::exists(bogus));
  EXPECT_TRUE(std::filesystem::exists(bogus + ".corrupt"));
  EXPECT_EQ(registry.ListSequences(), (std::vector<uint64_t>{1, 2}));
}

TEST_F(AdapterRegistryTest, TransientLoadFaultIsRetriedWithoutQuarantine) {
  std::string dir = FreshDir("transient");
  AdapterRegistry registry(dir, {.max_attempts = 3, .base_delay_ms = 1});
  auto published = registry.Publish(Export(41));
  ASSERT_TRUE(published.ok());

  ASSERT_TRUE(util::FaultRegistry::Get()
                  .Configure("serve/adapter_load=fail@1")
                  .ok());
  uint64_t rollbacks_before = Rollbacks();
  auto loaded = registry.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().sequence, uint64_t{1});
  // The retry absorbed the transient fault: no quarantine, no rollback.
  EXPECT_EQ(Rollbacks(), rollbacks_before);
  EXPECT_TRUE(std::filesystem::exists(published.value().path));
}

TEST_F(AdapterRegistryTest, ExhaustedRetriesForceRollbackToOlderVersion) {
  std::string dir = FreshDir("exhausted");
  // max_attempts = 1: the injected transient fault becomes fatal for the
  // first candidate the walk touches.
  AdapterRegistry registry(dir, {.max_attempts = 1, .base_delay_ms = 1});
  auto v1 = registry.Publish(Export(51));
  ASSERT_TRUE(v1.ok());
  auto v2 = registry.Publish(Export(52));
  ASSERT_TRUE(v2.ok());

  ASSERT_TRUE(util::FaultRegistry::Get()
                  .Configure("serve/adapter_load=fail@1")
                  .ok());
  uint64_t rollbacks_before = Rollbacks();
  auto loaded = registry.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // v2 burned the single attempt on the injected fault, got quarantined,
  // and the walk rolled back to v1.
  EXPECT_EQ(loaded.value().sequence, uint64_t{1});
  ExpectSameWeights(*v1.value().adapter, *loaded.value().adapter);
  EXPECT_GE(Rollbacks(), rollbacks_before + 1);
  EXPECT_FALSE(std::filesystem::exists(v2.value().path));
  EXPECT_TRUE(std::filesystem::exists(v2.value().path + ".corrupt"));
  EXPECT_EQ(registry.ListSequences(), (std::vector<uint64_t>{1}));
}

TEST_F(AdapterRegistryTest, AllVersionsFailingReportsUnavailable) {
  std::string dir = FreshDir("allfail");
  AdapterRegistry registry(dir, {.max_attempts = 1, .base_delay_ms = 1});
  ASSERT_TRUE(registry.Publish(Export(61)).ok());
  ASSERT_TRUE(registry.Publish(Export(62)).ok());

  // Permanent fault: every candidate load fails, every file quarantines.
  ASSERT_TRUE(util::FaultRegistry::Get()
                  .Configure("serve/adapter_load=fail@1+")
                  .ok());
  auto loaded = registry.LoadLatest();
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kUnavailable)
      << loaded.status();
  EXPECT_TRUE(registry.ListSequences().empty());
}

}  // namespace
}  // namespace infuserki::serve
