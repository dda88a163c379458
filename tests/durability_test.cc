// Corruption-fuzz and fault-injection coverage for the durability layer:
// framed (CRC32) binary checkpoints, atomic file publication, quarantine,
// and the failpoint registry. The central property: no truncated or
// bit-flipped artifact ever loads silently (or crashes) — every corrupt
// load surfaces kDataLoss / kInvalidArgument and leaves the caller able to
// degrade to retraining.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "model/pretrain.h"
#include "tensor/checkpoint.h"
#include "tensor/tensor.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/serialize.h"

namespace infuserki {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  ASSERT_TRUE(out.good()) << path;
}

bool IsCorruptionError(const util::Status& status) {
  return status.code() == util::StatusCode::kDataLoss ||
         status.code() == util::StatusCode::kInvalidArgument;
}

/// Runs `load` (which must return a Status) against every 64-byte-boundary
/// truncation of `path` and against one bit flip per file region.
template <typename LoadFn>
void FuzzFile(const std::string& path, const LoadFn& load) {
  std::string pristine = ReadFile(path);
  ASSERT_FALSE(pristine.empty());

  for (size_t cut = 0; cut < pristine.size(); cut += 64) {
    WriteFile(path, pristine.substr(0, cut));
    util::Status status = load();
    EXPECT_FALSE(status.ok()) << "truncation at " << cut << " loaded";
    EXPECT_TRUE(IsCorruptionError(status))
        << "truncation at " << cut << ": " << status.ToString();
  }

  // One flipped bit per region: start (header), middle (payload), end
  // (footer / trailer).
  for (size_t offset : {size_t{2}, pristine.size() / 2, pristine.size() - 3}) {
    std::string flipped = pristine;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x10);
    if (flipped == pristine) continue;
    WriteFile(path, flipped);
    util::Status status = load();
    EXPECT_FALSE(status.ok()) << "bit flip at " << offset << " loaded";
    EXPECT_TRUE(IsCorruptionError(status))
        << "bit flip at " << offset << ": " << status.ToString();
  }

  WriteFile(path, pristine);
  EXPECT_TRUE(load().ok()) << "pristine copy must still load";
}

TEST(Crc32, MatchesKnownVector) {
  // The standard CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(util::Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(util::Crc32(""), 0u);
  // Incremental == one-shot.
  uint32_t chained = util::Crc32(std::string_view("6789"),
                                 util::Crc32(std::string_view("12345")));
  EXPECT_EQ(chained, 0xcbf43926u);
}

TEST(DurabilityFuzz, FramedSerializeRejectsAllCorruption) {
  std::string path = ::testing::TempDir() + "/frame_fuzz.bin";
  util::BinaryWriter writer(path);
  writer.WriteU32(0xfeedf00d);
  for (int i = 0; i < 100; ++i) writer.WriteU32(static_cast<uint32_t>(i));
  writer.WriteString("payload tail");
  ASSERT_TRUE(writer.Finish().ok());

  FuzzFile(path, [&] {
    util::BinaryReader reader(path);
    return reader.status();
  });
  std::remove(path.c_str());
}

TEST(DurabilityFuzz, TensorCheckpointRejectsAllCorruption) {
  util::Rng rng(3);
  tensor::Tensor a = tensor::Tensor::Randn({6, 5}, &rng);
  tensor::Tensor b = tensor::Tensor::Randn({17}, &rng);
  std::vector<tensor::NamedParameter> params = {{"a", a}, {"b", b}};
  std::string path = ::testing::TempDir() + "/ckpt_fuzz.ckpt";
  ASSERT_TRUE(tensor::SaveParameters(params, path).ok());

  FuzzFile(path, [&] { return tensor::LoadParameters(params, path); });
  std::remove(path.c_str());
}

model::PretrainSpec TinySpec(const std::string& cache_dir) {
  model::PretrainSpec spec;
  spec.arch.dim = 8;
  spec.arch.num_layers = 1;
  spec.arch.num_heads = 2;
  spec.arch.ffn_hidden = 16;
  spec.plain_docs = {"alpha maps to beta", "gamma maps to delta"};
  spec.steps = 2;
  spec.batch_size = 2;
  spec.seed = 5;
  spec.cache_dir = cache_dir;
  return spec;
}

TEST(DurabilityFuzz, PretrainCacheRejectsAllCorruption) {
  std::string dir = ::testing::TempDir() + "/cache_fuzz";
  std::filesystem::remove_all(dir);
  model::PretrainSpec spec = TinySpec(dir);
  (void)model::PretrainOrLoad(spec);
  std::string path = model::PretrainCachePath(spec);
  ASSERT_TRUE(std::filesystem::exists(path));

  FuzzFile(path, [&] {
    model::PretrainedModel out;
    return model::LoadCachedModel(path, spec, &out);
  });
  std::filesystem::remove_all(dir);
}

TEST(DurabilityFuzz, CorruptCacheQuarantinesAndRetrains) {
  std::string dir = ::testing::TempDir() + "/cache_degrade";
  std::filesystem::remove_all(dir);
  model::PretrainSpec spec = TinySpec(dir);
  (void)model::PretrainOrLoad(spec);
  std::string path = model::PretrainCachePath(spec);
  std::string pristine = ReadFile(path);
  std::string flipped = pristine;
  flipped[pristine.size() / 2] =
      static_cast<char>(flipped[pristine.size() / 2] ^ 0x01);
  WriteFile(path, flipped);

  // Graceful degradation: the corrupt cache is moved aside and the model is
  // retrained from scratch (final_loss > 0 distinguishes training from a
  // cache load, which reports 0).
  model::PretrainedModel retrained = model::PretrainOrLoad(spec);
  EXPECT_GT(retrained.final_loss, 0.0f);
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  std::filesystem::remove_all(dir);
}

TEST(AtomicFile, WritePublishesAndLeavesNoTemp) {
  std::string path = ::testing::TempDir() + "/atomic_commit.txt";
  ASSERT_TRUE(util::WriteFileAtomic(path, "hello durable world").ok());
  EXPECT_EQ(ReadFile(path), "hello durable world");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFile, TransientFaultIsRetried) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  faults.Clear();
  ASSERT_TRUE(faults.Configure("io/atomic_write=fail@1").ok());
  std::string path = ::testing::TempDir() + "/atomic_retry.txt";
  util::RetryOptions fast{.max_attempts = 3, .base_delay_ms = 1};
  EXPECT_TRUE(
      util::WriteFileAtomic(path, "survived", "io/atomic_write", fast).ok());
  EXPECT_EQ(ReadFile(path), "survived");
  EXPECT_EQ(faults.hits("io/atomic_write"), uint64_t{2});
  faults.Clear();
  std::remove(path.c_str());
}

TEST(AtomicFile, PermanentFaultFailsWithoutPublishing) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  faults.Clear();
  ASSERT_TRUE(faults.Configure("io/atomic_write=fail@1+").ok());
  std::string path = ::testing::TempDir() + "/atomic_perm.txt";
  std::remove(path.c_str());
  util::RetryOptions fast{.max_attempts = 3, .base_delay_ms = 1};
  util::Status status =
      util::WriteFileAtomic(path, "doomed", "io/atomic_write", fast);
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(faults.hits("io/atomic_write"), uint64_t{3});
  faults.Clear();
}

TEST(AtomicFile, QuarantineMovesFileAside) {
  std::string path = ::testing::TempDir() + "/quarantine_me.bin";
  WriteFile(path, "rotten bytes");
  ASSERT_TRUE(util::QuarantineFile(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(ReadFile(path + ".corrupt"), "rotten bytes");
  EXPECT_EQ(util::QuarantineFile(path).code(),
            util::StatusCode::kNotFound);
  std::remove((path + ".corrupt").c_str());
}

TEST(FaultRegistry, NthHitSemantics) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  faults.Clear();
  ASSERT_TRUE(faults.Configure("test/point=fail@2").ok());
  EXPECT_TRUE(faults.Hit("test/point").ok());
  EXPECT_EQ(faults.Hit("test/point").code(), util::StatusCode::kInternal);
  EXPECT_TRUE(faults.Hit("test/point").ok());  // transient: only the Nth
  EXPECT_EQ(faults.hits("test/point"), uint64_t{3});
  EXPECT_TRUE(faults.Hit("unarmed/point").ok());
  faults.Clear();
}

TEST(FaultRegistry, FailFromIsPermanent) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  faults.Clear();
  ASSERT_TRUE(faults.Configure("test/point=fail@2+").ok());
  EXPECT_TRUE(faults.Hit("test/point").ok());
  EXPECT_FALSE(faults.Hit("test/point").ok());
  EXPECT_FALSE(faults.Hit("test/point").ok());
  faults.Clear();
}

TEST(FaultRegistry, ProbabilisticStreamIsDeterministic) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  auto draw_pattern = [&] {
    faults.Clear();
    EXPECT_TRUE(faults.Configure("test/prob=prob:0.5:1234").ok());
    std::vector<bool> pattern;
    for (int i = 0; i < 32; ++i) {
      pattern.push_back(faults.Hit("test/prob").ok());
    }
    return pattern;
  };
  std::vector<bool> first = draw_pattern();
  std::vector<bool> second = draw_pattern();
  EXPECT_EQ(first, second);
  // A 0.5 stream that never fails (or always fails) in 32 draws would be
  // astronomically unlikely — and useless for testing.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 32);
  faults.Clear();
}

TEST(RetryWithBackoff, OverallDeadlineStopsRetryingEarly) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  faults.Clear();
  ASSERT_TRUE(faults.Configure("test/point=fail@1+").ok());
  // 50 attempts at a flat 40 ms backoff would take ~2 s; a 60 ms budget
  // must cut the loop off after at most a couple of attempts and hand back
  // the last underlying error (not a synthetic deadline status).
  util::RetryOptions options{
      .max_attempts = 50, .base_delay_ms = 40, .multiplier = 1.0};
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
  util::Status status = util::RetryWithBackoff(
      [&] { return faults.Hit("test/point"); }, options, "deadline test");
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_GE(faults.hits("test/point"), uint64_t{1});
  EXPECT_LT(faults.hits("test/point"), uint64_t{6});
  faults.Clear();
}

TEST(RetryWithBackoff, ExpiredDeadlineStillRunsFirstAttempt) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  faults.Clear();
  ASSERT_TRUE(faults.Configure("test/point=fail@1+").ok());
  util::RetryOptions options{.max_attempts = 5, .base_delay_ms = 1};
  options.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  util::Status status = util::RetryWithBackoff(
      [&] { return faults.Hit("test/point"); }, options, "expired test");
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_EQ(faults.hits("test/point"), uint64_t{1});
  faults.Clear();
}

TEST(RetryWithBackoff, NoDeadlineExhaustsAllAttempts) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  faults.Clear();
  ASSERT_TRUE(faults.Configure("test/point=fail@1+").ok());
  util::RetryOptions options{.max_attempts = 4, .base_delay_ms = 1};
  util::Status status = util::RetryWithBackoff(
      [&] { return faults.Hit("test/point"); }, options, "unbounded test");
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_EQ(faults.hits("test/point"), uint64_t{4});
  faults.Clear();
}

TEST(BoundDeadline, EpochInputsLeaveOptionsUnbounded) {
  const std::chrono::steady_clock::time_point epoch{};
  util::RetryOptions options;  // default: unbounded
  util::RetryOptions bounded = util::BoundDeadline(options, epoch);
  EXPECT_EQ(bounded.deadline, epoch);
  // Everything else passes through untouched.
  EXPECT_EQ(bounded.max_attempts, options.max_attempts);
  EXPECT_EQ(bounded.base_delay_ms, options.base_delay_ms);
  EXPECT_EQ(bounded.multiplier, options.multiplier);
}

TEST(BoundDeadline, OneSidedBoundWinsFromEitherSide) {
  const std::chrono::steady_clock::time_point epoch{};
  const auto bound =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);

  // Request deadline set, options unbounded: the request bound sticks.
  util::RetryOptions unbounded;
  EXPECT_EQ(util::BoundDeadline(unbounded, bound).deadline, bound);

  // Options deadline set, request without one: the configured bound
  // SURVIVES — the regression a plain `options.deadline = request` erases.
  util::RetryOptions configured;
  configured.deadline = bound;
  EXPECT_EQ(util::BoundDeadline(configured, epoch).deadline, bound);
}

TEST(BoundDeadline, EarliestOfTwoBoundsWins) {
  const auto now = std::chrono::steady_clock::now();
  const auto sooner = now + std::chrono::seconds(1);
  const auto later = now + std::chrono::seconds(9);

  util::RetryOptions options;
  options.deadline = later;
  EXPECT_EQ(util::BoundDeadline(options, sooner).deadline, sooner);
  options.deadline = sooner;
  EXPECT_EQ(util::BoundDeadline(options, later).deadline, sooner);
}

TEST(RetryWithBackoff, BoundedOptionsNeverOversleepTheTighterBound) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  faults.Clear();
  ASSERT_TRUE(faults.Configure("test/point=fail@1+").ok());
  // Server policy allows a leisurely 2 s retry budget, but the request's
  // own deadline lands in 60 ms; the merged options must cut off there.
  util::RetryOptions options{
      .max_attempts = 50, .base_delay_ms = 40, .multiplier = 1.0};
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  const auto request_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
  const auto start = std::chrono::steady_clock::now();
  util::Status status = util::RetryWithBackoff(
      [&] { return faults.Hit("test/point"); },
      util::BoundDeadline(options, request_deadline), "bound test");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
  faults.Clear();
}

TEST(FaultRegistry, MalformedSpecsAreRejected) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  faults.Clear();
  EXPECT_EQ(faults.Configure("no-equals-sign").code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(faults.Configure("p=unknownmode").code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(faults.Configure("p=fail@notanumber").code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(faults.Configure("p=prob:2.0").code(),
            util::StatusCode::kInvalidArgument);
  faults.Clear();
}

TEST(FaultRegistry, OffDisarmsPoint) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  faults.Clear();
  ASSERT_TRUE(faults.Configure("test/point=fail@1+").ok());
  EXPECT_FALSE(faults.Hit("test/point").ok());
  ASSERT_TRUE(faults.Configure("test/point=off").ok());
  EXPECT_TRUE(faults.Hit("test/point").ok());
  faults.Clear();
}

}  // namespace
}  // namespace infuserki
