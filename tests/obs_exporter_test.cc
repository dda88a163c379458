// Tests for the background MetricsExporter (src/obs/exporter.h): periodic
// NDJSON appends + Prometheus text exposition, final flush on Stop(), and
// data-race freedom while application threads mutate the registry (this
// binary runs under the TSan gate — see tools/check_build.sh).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/metrics.h"

namespace infuserki::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(MetricsExporter, PeriodZeroDisablesTheThreadButTickNowWorks) {
  std::string ndjson = TempPath("exporter_manual.ndjson");
  std::remove(ndjson.c_str());
  ExporterOptions options;
  options.ndjson_path = ndjson;  // period stays 0
  MetricsExporter exporter(options);
  EXPECT_FALSE(exporter.running());
  EXPECT_EQ(exporter.ticks(), 0u);

  Registry::Get().GetCounter("test/exporter_manual")->Reset();
  Registry::Get().GetCounter("test/exporter_manual")->Increment(5);
  exporter.TickNow();
  exporter.TickNow();
  EXPECT_EQ(exporter.ticks(), 2u);
  std::vector<std::string> lines = ReadLines(ndjson);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"test/exporter_manual\":5"), std::string::npos);
  std::remove(ndjson.c_str());
}

TEST(MetricsExporter, NdjsonLineCountMatchesTicks) {
  std::string ndjson = TempPath("exporter_lines.ndjson");
  std::remove(ndjson.c_str());
  ExporterOptions options;
  options.period = std::chrono::milliseconds(5);
  options.ndjson_path = ndjson;
  uint64_t final_ticks = 0;
  {
    MetricsExporter exporter(options);
    EXPECT_TRUE(exporter.running());
    while (exporter.ticks() < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    exporter.Stop();
    EXPECT_FALSE(exporter.running());
    final_ticks = exporter.ticks();
    // Stop() is idempotent and the destructor tolerates a prior Stop().
    exporter.Stop();
    EXPECT_EQ(exporter.ticks(), final_ticks);
  }
  // Every tick appended exactly one line, including the final flush.
  EXPECT_EQ(ReadLines(ndjson).size(), final_ticks);
  std::remove(ndjson.c_str());
}

TEST(MetricsExporter, StopFlushesTheLatestCounters) {
  std::string ndjson = TempPath("exporter_flush.ndjson");
  std::remove(ndjson.c_str());
  Registry::Get().GetCounter("test/exporter_flush")->Reset();
  ExporterOptions options;
  // A period far longer than the test: only the final flush can see the
  // increment below.
  options.period = std::chrono::milliseconds(60'000);
  options.ndjson_path = ndjson;
  {
    MetricsExporter exporter(options);
    Registry::Get().GetCounter("test/exporter_flush")->Increment(123);
  }  // destructor -> Stop() -> final TickNow()
  std::vector<std::string> lines = ReadLines(ndjson);
  ASSERT_GE(lines.size(), 1u);
  EXPECT_NE(lines.back().find("\"test/exporter_flush\":123"),
            std::string::npos);
  std::remove(ndjson.c_str());
}

TEST(MetricsExporter, PrometheusTextExposition) {
  std::string prom = TempPath("exporter.prom");
  std::remove(prom.c_str());
  Registry::Get().GetCounter("test/prom_counter")->Reset();
  Registry::Get().GetCounter("test/prom_counter")->Increment(9);
  Registry::Get().GetGauge("test/prom_gauge")->Set(2.5);
  Histogram* histogram = Registry::Get().GetHistogram("test/prom_histogram");
  histogram->Reset();
  histogram->Record(0.5);
  histogram->Record(0.5);
  histogram->Record(4.0);

  ExporterOptions options;
  options.prometheus_path = prom;
  MetricsExporter exporter(options);
  exporter.TickNow();

  std::string text = ReadFile(prom);
  EXPECT_NE(text.find("# TYPE infuserki_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("infuserki_test_prom_counter 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE infuserki_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE infuserki_test_prom_histogram histogram"),
            std::string::npos);
  // The +Inf bucket is cumulative and must equal the sample count.
  EXPECT_NE(text.find("infuserki_test_prom_histogram_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("infuserki_test_prom_histogram_count 3"),
            std::string::npos);
  EXPECT_NE(text.find("infuserki_test_prom_histogram_sum 5"),
            std::string::npos);
  std::remove(prom.c_str());
}

TEST(MetricsExporter, WindowedRatesAppearInNdjson) {
  std::string ndjson = TempPath("exporter_window.ndjson");
  std::remove(ndjson.c_str());
  Registry::Get().GetCounter("test/exporter_window")->Reset();
  ExporterOptions options;
  options.ndjson_path = ndjson;
  options.window_seconds = 30.0;
  MetricsExporter exporter(options);
  exporter.TickNow();
  Registry::Get().GetCounter("test/exporter_window")->Increment(50);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  exporter.TickNow();
  std::vector<std::string> lines = ReadLines(ndjson);
  ASSERT_EQ(lines.size(), 2u);
  // The second record has two frames of window context: covered_seconds > 0
  // and a rate entry for the counter that moved.
  EXPECT_NE(lines[1].find("\"window\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"counter_rates\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"test/exporter_window\""), std::string::npos);
  std::remove(ndjson.c_str());
}

// The TSan-gated heart of this binary: a live exporter thread snapshotting
// and formatting while application threads hammer every metric kind.
TEST(MetricsExporter, RacesCleanlyWithMetricMutation) {
  std::string ndjson = TempPath("exporter_race.ndjson");
  std::string prom = TempPath("exporter_race.prom");
  std::remove(ndjson.c_str());
  std::remove(prom.c_str());
  Counter* counter = Registry::Get().GetCounter("test/exporter_race_counter");
  Gauge* gauge = Registry::Get().GetGauge("test/exporter_race_gauge");
  Histogram* histogram =
      Registry::Get().GetHistogram("test/exporter_race_histogram");
  counter->Reset();
  gauge->Reset();
  histogram->Reset();

  ExporterOptions options;
  options.period = std::chrono::milliseconds(1);
  options.ndjson_path = ndjson;
  options.prometheus_path = prom;
  MetricsExporter exporter(options);

  constexpr int kThreads = 4;
  constexpr int kIterations = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        counter->Increment();
        gauge->Set(static_cast<double>(i));
        histogram->Record(1e-4 * (t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  exporter.Stop();

  // The final flush ran after every writer joined, so the last record holds
  // the exact totals.
  std::vector<std::string> lines = ReadLines(ndjson);
  ASSERT_GE(lines.size(), 1u);
  std::ostringstream expected;
  expected << "\"test/exporter_race_counter\":" << kThreads * kIterations;
  EXPECT_NE(lines.back().find(expected.str()), std::string::npos);
  EXPECT_GE(exporter.ticks(), 1u);
  std::remove(ndjson.c_str());
  std::remove(prom.c_str());
}

}  // namespace
}  // namespace infuserki::obs
