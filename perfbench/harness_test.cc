// Tests of the benchmark's own logic: seeded schedules, the percentile
// rank convention, the tail-sample rule, SLO attainment and span self time.

#include "perfbench/harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace infuserki::perfbench {
namespace {

bool SameSchedule(const std::vector<Arrival>& a,
                  const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].at_s != b[i].at_s || a[i].tenant != b[i].tenant ||
        a[i].prompt != b[i].prompt) {
      return false;
    }
  }
  return true;
}

TEST(BurstScheduleTest, SameSeedGivesIdenticalScheduleAndPromptDraw) {
  BurstSpec spec;
  EXPECT_TRUE(SameSchedule(BurstSchedule(spec, 42), BurstSchedule(spec, 42)));
}

TEST(BurstScheduleTest, DifferentSeedGivesDifferentSchedule) {
  BurstSpec spec;
  std::vector<Arrival> a = BurstSchedule(spec, 1);
  std::vector<Arrival> b = BurstSchedule(spec, 2);
  EXPECT_FALSE(SameSchedule(a, b));
  bool prompts_differ = false;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    prompts_differ = prompts_differ || a[i].prompt != b[i].prompt;
  }
  EXPECT_TRUE(prompts_differ);
}

TEST(BurstScheduleTest, OffersTheMeanRateInBurstsWithinTheWindow) {
  BurstSpec spec;
  spec.seconds = 20.0;
  spec.mean_rate_qps = 100.0;
  spec.burst_size = 20;
  std::vector<Arrival> schedule = BurstSchedule(spec, 7);
  // 100 slots of 0.2 s, one burst of 20 each.
  ASSERT_EQ(schedule.size(), 2000u);
  EXPECT_EQ(schedule.size(), BurstSchedule(spec, 8).size());
  for (size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i].at_s, schedule[i - 1].at_s);
    if (i % spec.burst_size != 0) {
      EXPECT_EQ(schedule[i].at_s, schedule[i - 1].at_s);
    }
  }
  EXPECT_LT(schedule.back().at_s, spec.seconds);
  // Bursts start in the first half of their slot: at least half a slot
  // apart.
  EXPECT_GE(MinInterArrivalGap(schedule), 0.1 - 1e-9);
  for (const Arrival& arrival : schedule) {
    EXPECT_LT(arrival.tenant, spec.tenants);
    EXPECT_LT(arrival.prompt, spec.pool_size);
  }
}

TEST(ZipfSamplerTest, LowRanksAreHot) {
  ZipfSampler zipf(32, 1.1);
  EXPECT_EQ(zipf.Sample(0.0), 0u);
  EXPECT_EQ(zipf.Sample(0.999999), 31u);
  std::vector<int> counts(32, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample((i + 0.5) / 10000.0)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[8]);
}

TEST(PercentileTest, NearestRankUsesCeilRank) {
  std::vector<double> samples = {5, 1, 4, 2, 3};  // sorted: 1 2 3 4 5
  EXPECT_EQ(NearestRank(samples, 0.5), 3.0);      // rank ceil(2.5) = 3
  EXPECT_EQ(NearestRank(samples, 0.2), 1.0);      // rank ceil(1.0) = 1
  EXPECT_EQ(NearestRank(samples, 0.21), 2.0);     // rank ceil(1.05) = 2
  EXPECT_EQ(NearestRank(samples, 0.0), 1.0);
  EXPECT_EQ(NearestRank(samples, 1.0), 5.0);
  EXPECT_EQ(NearestRank({}, 0.5), 0.0);
}

TEST(PercentileTest, MatchesHistogramQuantileRankConvention) {
  // One sample per exponential bucket: the histogram's interpolated
  // quantile can only land in the bucket of the sample at the same rank.
  obs::Histogram* histogram =
      obs::Registry::Get().GetHistogram("perfbench_test/rank_convention");
  histogram->Reset();
  std::vector<double> samples;
  for (int i = 0; i < 40; ++i) {
    double value = obs::Histogram::kFirstBound * std::pow(2.0, i) * 0.75;
    samples.push_back(value);
    histogram->Record(value);
  }
  obs::HistogramStats stats = histogram->Stats();
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.99}) {
    EXPECT_EQ(obs::Histogram::BucketIndexFor(NearestRank(samples, q)),
              obs::Histogram::BucketIndexFor(obs::HistogramQuantile(stats, q)))
        << "q=" << q;
  }
}

TEST(PercentileTest, TailNeedsTenSamplesBeyondIt) {
  // p99 of n samples sits at rank ceil(0.99 n); n - rank must be >= 10.
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(0, 0.5));
  // At n = 1000 the p99 rank is 990, with exactly 10 samples beyond it.
  std::vector<double> enough(1000);
  for (size_t i = 0; i < enough.size(); ++i) enough[i] = double(i + 1);
  EXPECT_EQ(NearestRank(enough, 0.99), 990.0);
}

TEST(SloTest, ShedAndFailedRequestsCountAsMisses) {
  SloLimits limits{/*ttft_ms=*/10.0, /*itl_ms=*/2.0};
  std::vector<RequestOutcome> outcomes = {
      {true, 5.0, 1.0},    // meets both
      {true, 20.0, 1.0},   // TTFT too slow
      {true, 5.0, 3.0},    // ITL too slow
      {false, 0.0, 0.0},   // shed: no timings, still a miss
      {false, 1.0, 0.5},   // failed after fast tokens: a miss
  };
  EXPECT_DOUBLE_EQ(SloAttainment(outcomes, limits), 1.0 / 5.0);
  EXPECT_EQ(SloAttainment({}, limits), 0.0);
}

TEST(SpanSelfTimesTest, SubtractsDirectChildrenOnTheSameThread) {
  std::vector<obs::SpanEvent> events = {
      {"root", 0, 100, 1, 0},
      {"child", 10, 40, 1, 1},
      {"grandchild", 15, 25, 1, 2},
      {"child", 50, 70, 1, 1},
      {"other_thread", 0, 100, 2, 0},
  };
  std::map<std::string, SpanTime> times = SpanSelfTimes(events);
  EXPECT_EQ(times["root"].count, 1u);
  EXPECT_NEAR(times["root"].self_s, 50e-6, 1e-12);
  EXPECT_EQ(times["child"].count, 2u);
  EXPECT_NEAR(times["child"].total_s, 50e-6, 1e-12);
  EXPECT_NEAR(times["child"].self_s, 40e-6, 1e-12);
  EXPECT_NEAR(times["grandchild"].self_s, 10e-6, 1e-12);
  EXPECT_NEAR(times["other_thread"].self_s, 100e-6, 1e-12);
}

TEST(ResultLineTest, HasExactlyTheFourKeys) {
  std::string line = ResultLine(true, 3, 0, {{"latency_ms", 1.25, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,"
            "\"metrics\":{\"latency_ms\":{\"value\":1.25,\"unit\":"
            "\"ms\"}}}");
}

}  // namespace
}  // namespace infuserki::perfbench
