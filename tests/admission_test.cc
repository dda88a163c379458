// Unit suite for the overload-control primitives (DESIGN.md §14): the
// tiered WDRR AdmissionController, the hysteretic BrownoutController, and
// the RateEstimator behind deadline-infeasible shedding. Everything here
// is deterministic — time points are passed in explicitly and payloads
// are trivial Item subclasses, so no sleeping, no model, no threads.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/admission.h"
#include "util/status.h"

namespace infuserki::serve {
namespace {

using std::chrono::steady_clock;

/// Trivial queue payload carrying an id so pop order is observable.
struct Tag : AdmissionController::Item {
  explicit Tag(int id_in) : id(id_in) {}
  int id;
};

int TagId(const AdmissionController::Entry& entry) {
  return static_cast<const Tag*>(entry.item.get())->id;
}

AdmissionController::Entry MakeEntry(int id, const std::string& tenant,
                                     Priority priority) {
  AdmissionController::Entry entry;
  entry.item = std::make_unique<Tag>(id);
  entry.tenant = tenant;
  entry.priority = priority;
  return entry;
}

/// Offers and (on admission) pushes one tagged entry; returns the verdict.
AdmissionController::Verdict OfferPush(AdmissionController* controller,
                                       int id, const std::string& tenant,
                                       Priority priority,
                                       steady_clock::time_point now,
                                       int brownout_level = 0) {
  auto verdict = controller->Offer(tenant, priority, now, brownout_level);
  if (verdict.reason == ShedReason::kNone) {
    controller->Push(MakeEntry(id, tenant, priority));
  }
  return verdict;
}

std::vector<std::pair<std::string, int>> PopAll(
    AdmissionController* controller) {
  std::vector<std::pair<std::string, int>> order;
  AdmissionController::Entry entry;
  while (controller->PopNext(&entry)) {
    order.emplace_back(entry.tenant, TagId(entry));
  }
  return order;
}

TEST(AdmissionControllerTest, WeightedDeficitRoundRobinHonorsWeights) {
  AdmissionOptions options;
  options.tenants["heavy"].weight = 3.0;
  options.tenants["light"].weight = 1.0;
  AdmissionController controller(options, /*queue_capacity=*/64);

  const auto now = steady_clock::now();
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(OfferPush(&controller, i, "heavy", Priority::kNormal, now)
                  .reason,
              ShedReason::kNone);
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(OfferPush(&controller, 100 + i, "light", Priority::kNormal,
                        now)
                  .reason,
              ShedReason::kNone);
  }

  auto order = PopAll(&controller);
  ASSERT_EQ(order.size(), 8u);
  // With quantum 1.0 a full ring rotation credits heavy 3 requests for
  // every 1 of light: the first four pops must be 3x heavy then 1x light.
  int heavy_in_first_four = 0;
  for (int i = 0; i < 4; ++i) {
    if (order[i].first == "heavy") ++heavy_in_first_four;
  }
  EXPECT_EQ(heavy_in_first_four, 3);
  // Per-tenant FIFO order is preserved regardless of interleaving.
  std::vector<int> heavy_ids;
  std::vector<int> light_ids;
  for (const auto& [tenant, id] : order) {
    (tenant == "heavy" ? heavy_ids : light_ids).push_back(id);
  }
  EXPECT_EQ(heavy_ids, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(light_ids, (std::vector<int>{100, 101}));
}

TEST(AdmissionControllerTest, StrictPriorityAcrossTiers) {
  AdmissionController controller(AdmissionOptions{}, 16);
  const auto now = steady_clock::now();
  // Enqueue low and normal first; a late high-tier entry still pops first.
  OfferPush(&controller, 3, "a", Priority::kLow, now);
  OfferPush(&controller, 2, "a", Priority::kNormal, now);
  OfferPush(&controller, 1, "b", Priority::kHigh, now);

  auto order = PopAll(&controller);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].second, 1);
  EXPECT_EQ(order[1].second, 2);
  EXPECT_EQ(order[2].second, 3);
}

TEST(AdmissionControllerTest, GlobalQueueCapSheds) {
  AdmissionController controller(AdmissionOptions{}, /*queue_capacity=*/2);
  const auto now = steady_clock::now();
  EXPECT_EQ(OfferPush(&controller, 0, "a", Priority::kNormal, now).reason,
            ShedReason::kNone);
  EXPECT_EQ(OfferPush(&controller, 1, "b", Priority::kNormal, now).reason,
            ShedReason::kNone);
  EXPECT_EQ(OfferPush(&controller, 2, "c", Priority::kHigh, now).reason,
            ShedReason::kQueueFull);
  EXPECT_EQ(controller.size(), 2u);
}

TEST(AdmissionControllerTest, TenantCapShedsOnlyTheOffender) {
  AdmissionOptions options;
  options.tenants["flood"].queue_cap = 1;
  AdmissionController controller(options, /*queue_capacity=*/16);
  const auto now = steady_clock::now();

  EXPECT_EQ(OfferPush(&controller, 0, "flood", Priority::kNormal, now)
                .reason,
            ShedReason::kNone);
  EXPECT_EQ(OfferPush(&controller, 1, "flood", Priority::kNormal, now)
                .reason,
            ShedReason::kTenantCap);
  // A well-behaved tenant is unaffected by the flooder's cap.
  EXPECT_EQ(OfferPush(&controller, 2, "polite", Priority::kNormal, now)
                .reason,
            ShedReason::kNone);
  EXPECT_EQ(controller.tenant_depth("flood"), 1u);
  EXPECT_EQ(controller.tenant_depth("polite"), 1u);
}

TEST(AdmissionControllerTest, TokenBucketRateLimitsWithExactHint) {
  AdmissionOptions options;
  options.tenants["limited"].rate_qps = 2.0;
  options.tenants["limited"].burst = 1.0;
  AdmissionController controller(options, 16);
  const auto t0 = steady_clock::now();

  // Bucket is primed full: the first request spends the single token.
  EXPECT_EQ(OfferPush(&controller, 0, "limited", Priority::kNormal, t0)
                .reason,
            ShedReason::kNone);
  // Immediately after, the bucket is empty; the hint is the exact refill
  // time for one token at 2 qps: 0.5 s.
  auto verdict = controller.Offer("limited", Priority::kNormal, t0, 0);
  EXPECT_EQ(verdict.reason, ShedReason::kRateLimited);
  EXPECT_NEAR(verdict.retry_after_s, 0.5, 1e-9);
  // A rate-limit shed never burns tokens: after the refill interval the
  // bucket admits again.
  EXPECT_EQ(OfferPush(&controller, 1, "limited", Priority::kNormal,
                      t0 + std::chrono::milliseconds(600))
                .reason,
            ShedReason::kNone);
}

TEST(AdmissionControllerTest, BurstAllowsBackToBackThenLimits) {
  AdmissionOptions options;
  options.tenants["bursty"].rate_qps = 1.0;
  options.tenants["bursty"].burst = 3.0;
  AdmissionController controller(options, 16);
  const auto t0 = steady_clock::now();

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(OfferPush(&controller, i, "bursty", Priority::kNormal, t0)
                  .reason,
              ShedReason::kNone)
        << "burst admit " << i;
  }
  EXPECT_EQ(controller.Offer("bursty", Priority::kNormal, t0, 0).reason,
            ShedReason::kRateLimited);
}

TEST(AdmissionControllerTest, BrownoutRejectsLowTierOnly) {
  AdmissionController controller(AdmissionOptions{}, 16);
  const auto now = steady_clock::now();
  auto low = controller.Offer("a", Priority::kLow, now,
                              kBrownoutRejectLowLevel);
  EXPECT_EQ(low.reason, ShedReason::kBrownout);
  EXPECT_EQ(controller
                .Offer("a", Priority::kNormal, now, kBrownoutRejectLowLevel)
                .reason,
            ShedReason::kNone);
  // Below the reject level, kLow is still admitted.
  EXPECT_EQ(controller
                .Offer("a", Priority::kLow, now, kBrownoutBypassCacheLevel)
                .reason,
            ShedReason::kNone);
}

TEST(AdmissionControllerTest, DeferredEntryReturnsFirst) {
  AdmissionController controller(AdmissionOptions{}, 16);
  const auto now = steady_clock::now();
  OfferPush(&controller, 0, "a", Priority::kNormal, now);
  OfferPush(&controller, 1, "a", Priority::kHigh, now);

  AdmissionController::Entry entry;
  ASSERT_TRUE(controller.PopNext(&entry));
  EXPECT_EQ(TagId(entry), 1);  // high tier first
  // Scheduler could not fit it this iteration: defer it. It must come
  // back ahead of everything else on the very next pop.
  controller.Defer(std::move(entry));
  EXPECT_EQ(controller.size(), 2u);
  ASSERT_TRUE(controller.PopNext(&entry));
  EXPECT_EQ(TagId(entry), 1);
  ASSERT_TRUE(controller.PopNext(&entry));
  EXPECT_EQ(TagId(entry), 0);
  EXPECT_TRUE(controller.empty());
}

TEST(AdmissionControllerTest, DrainAllReturnsEverythingIncludingDeferred) {
  AdmissionController controller(AdmissionOptions{}, 16);
  const auto now = steady_clock::now();
  for (int i = 0; i < 3; ++i) {
    OfferPush(&controller, i, i % 2 ? "a" : "b", Priority::kNormal, now);
  }
  AdmissionController::Entry entry;
  ASSERT_TRUE(controller.PopNext(&entry));
  controller.Defer(std::move(entry));

  auto drained = controller.DrainAll();
  EXPECT_EQ(drained.size(), 3u);
  EXPECT_TRUE(controller.empty());
  EXPECT_EQ(controller.size(), 0u);
  EXPECT_EQ(controller.tenant_depth("a"), 0u);
  EXPECT_EQ(controller.tenant_depth("b"), 0u);
  AdmissionController::Entry none;
  EXPECT_FALSE(controller.PopNext(&none));
}

TEST(AdmissionControllerTest, AnonymousTenantBucketsAsDefault) {
  AdmissionOptions options;
  options.default_policy.queue_cap = 1;
  AdmissionController controller(options, 16);
  const auto now = steady_clock::now();
  EXPECT_EQ(OfferPush(&controller, 0, "", Priority::kNormal, now).reason,
            ShedReason::kNone);
  // "" and "default" share one bucket, so the cap applies across both.
  EXPECT_EQ(controller.Offer("default", Priority::kNormal, now, 0).reason,
            ShedReason::kTenantCap);
  EXPECT_EQ(controller.tenant_depth(""), 1u);
  EXPECT_EQ(controller.tenant_depth("default"), 1u);
}

TEST(AdmissionControllerTest, NameHelpers) {
  EXPECT_STREQ(ShedReasonName(ShedReason::kQueueFull), "queue_full");
  EXPECT_STREQ(ShedReasonName(ShedReason::kTenantCap), "tenant_cap");
  EXPECT_STREQ(ShedReasonName(ShedReason::kRateLimited), "rate_limited");
  EXPECT_STREQ(ShedReasonName(ShedReason::kBrownout), "brownout");
  EXPECT_STREQ(ShedReasonName(ShedReason::kDeadlineInfeasible),
               "infeasible");
}

TEST(BrownoutControllerTest, EscalatesAfterEnterTicks) {
  BrownoutOptions options;
  options.enter_occupancy = 0.75;
  options.exit_occupancy = 0.25;
  options.enter_ticks = 3;
  options.exit_ticks = 2;
  BrownoutController brownout(options);

  EXPECT_EQ(brownout.Tick(0.9), 0);
  EXPECT_EQ(brownout.Tick(0.9), 0);
  EXPECT_EQ(brownout.Tick(0.9), 1);  // third consecutive over-threshold
  // The streak restarts per level: two more ticks are not enough.
  EXPECT_EQ(brownout.Tick(0.9), 1);
  EXPECT_EQ(brownout.Tick(0.9), 1);
  EXPECT_EQ(brownout.Tick(0.9), 2);
  EXPECT_EQ(brownout.level(), 2);
}

TEST(BrownoutControllerTest, DeadBandHoldsLevelAndResetsStreaks) {
  BrownoutOptions options;
  options.enter_occupancy = 0.75;
  options.exit_occupancy = 0.25;
  options.enter_ticks = 2;
  options.exit_ticks = 2;
  BrownoutController brownout(options);

  EXPECT_EQ(brownout.Tick(0.9), 0);
  // Dead-band observation resets the escalation streak...
  EXPECT_EQ(brownout.Tick(0.5), 0);
  EXPECT_EQ(brownout.Tick(0.9), 0);
  // ...so it takes two more over-threshold ticks to escalate.
  EXPECT_EQ(brownout.Tick(0.9), 1);
  // And a dead-band tick also resets the de-escalation streak.
  EXPECT_EQ(brownout.Tick(0.1), 1);
  EXPECT_EQ(brownout.Tick(0.5), 1);
  EXPECT_EQ(brownout.Tick(0.1), 1);
  EXPECT_EQ(brownout.Tick(0.1), 0);
}

TEST(BrownoutControllerTest, ClampsAtMaxLevelAndFloorsAtZero) {
  BrownoutOptions options;
  options.enter_ticks = 1;
  options.exit_ticks = 1;
  BrownoutController brownout(options);

  for (int i = 0; i < kBrownoutMaxLevel + 3; ++i) brownout.Tick(1.0);
  EXPECT_EQ(brownout.level(), kBrownoutMaxLevel);
  for (int i = 0; i < kBrownoutMaxLevel + 3; ++i) brownout.Tick(0.0);
  EXPECT_EQ(brownout.level(), 0);
}

TEST(RateEstimatorTest, ColdEstimatorProvesNothing) {
  RateEstimator estimator;
  EXPECT_FALSE(estimator.warmed());
  EXPECT_EQ(estimator.EstimateServiceSeconds(100, 100), 0.0);
}

TEST(RateEstimatorTest, SeededRatesGiveExactEstimate) {
  RateEstimator estimator;
  estimator.SeedRates(/*prefill_tokens_per_s=*/100.0,
                      /*decode_tokens_per_s=*/10.0);
  EXPECT_TRUE(estimator.warmed());
  // 50 prompt tokens at 100 tok/s + 5 decode tokens at 10 tok/s = 1.0 s.
  EXPECT_NEAR(estimator.EstimateServiceSeconds(50, 5), 1.0, 1e-9);
}

TEST(RateEstimatorTest, PureDecodeStepFeedsDecodeRate) {
  RateEstimator estimator;
  estimator.ObserveStep(/*prefill_tokens=*/0, /*decode_tokens=*/8,
                        /*seconds=*/0.5);
  EXPECT_NEAR(estimator.decode_tokens_per_s(), 16.0, 1e-9);
  EXPECT_EQ(estimator.prefill_tokens_per_s(), 0.0);
  EXPECT_FALSE(estimator.warmed());  // prefill rate still unknown
}

TEST(RateEstimatorTest, EwmaBlendsTowardNewSamples) {
  RateEstimator estimator(/*alpha=*/0.5);
  estimator.ObserveStep(0, 10, 1.0);  // first sample wins: 10 tok/s
  EXPECT_NEAR(estimator.decode_tokens_per_s(), 10.0, 1e-9);
  estimator.ObserveStep(0, 20, 1.0);  // blend: 0.5*10 + 0.5*20
  EXPECT_NEAR(estimator.decode_tokens_per_s(), 15.0, 1e-9);
}

TEST(RateEstimatorTest, MixedStepAttributesResidualToPrefill) {
  RateEstimator estimator;
  // Establish the decode rate first: 10 tok/s.
  estimator.ObserveStep(0, 10, 1.0);
  // A mixed step: 90 prefill tokens + 1 decode row over 1.0 s. The decode
  // row costs ~0.1 s at the known rate, so ~0.9 s is prefill time and the
  // prefill rate lands near 100 tok/s.
  estimator.ObserveStep(90, 1, 1.0);
  EXPECT_TRUE(estimator.warmed());
  EXPECT_NEAR(estimator.prefill_tokens_per_s(), 100.0, 5.0);
}

TEST(RateEstimatorTest, ObserveRequestTracksProcessingSeconds) {
  RateEstimator estimator(/*alpha=*/0.5);
  estimator.ObserveRequest(2.0);
  EXPECT_NEAR(estimator.request_seconds(), 2.0, 1e-9);
  estimator.ObserveRequest(4.0);
  EXPECT_NEAR(estimator.request_seconds(), 3.0, 1e-9);
}

TEST(RetryAfterHintTest, RoundTripsThroughStatusMessage) {
  util::Status shed = util::WithRetryAfter(
      util::Status::ResourceExhausted("shed (rate_limited), tenant t"), 0.5);
  EXPECT_FALSE(shed.ok());
  EXPECT_NEAR(util::RetryAfterSeconds(shed), 0.5, 1e-9);
  // Statuses without a hint parse as 0.
  EXPECT_EQ(
      util::RetryAfterSeconds(util::Status::ResourceExhausted("shed")), 0.0);
  EXPECT_EQ(util::RetryAfterSeconds(util::Status::OK()), 0.0);
}

}  // namespace
}  // namespace infuserki::serve
