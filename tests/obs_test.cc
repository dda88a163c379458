#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace infuserki::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser, just enough to round-trip the obs
// exports (objects, arrays, strings with \uXXXX escapes, numbers, literals).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key: " << key;
    static const JsonValue null_value;
    return it == object.end() ? null_value : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // The JSON writers only emit \u00XX control escapes.
          out->push_back(static_cast<char>(code));
          break;
        }
        default: return false;
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue ParseOrDie(const std::string& text) {
  JsonValue value;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&value)) << "unparseable JSON: " << text;
  return value;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, ConcurrentCounterIsExact) {
  Counter* counter = Registry::Get().GetCounter("test/concurrent_counter");
  counter->Reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrements; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, CounterDeltaAndSameInstance) {
  Counter* counter = Registry::Get().GetCounter("test/delta_counter");
  counter->Reset();
  counter->Increment(41);
  counter->Increment();
  EXPECT_EQ(counter->Value(), 42u);
  // Same name resolves to the same object.
  EXPECT_EQ(Registry::Get().GetCounter("test/delta_counter"), counter);
}

TEST(Metrics, GaugeSetAndUpdateMax) {
  Gauge* gauge = Registry::Get().GetGauge("test/gauge");
  gauge->Reset();
  gauge->Set(3.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), 3.5);
  gauge->UpdateMax(2.0);  // lower: no effect
  EXPECT_DOUBLE_EQ(gauge->Value(), 3.5);
  gauge->UpdateMax(7.25);
  EXPECT_DOUBLE_EQ(gauge->Value(), 7.25);
}

TEST(Metrics, GaugeUpdateMaxRejectsNan) {
  Gauge* gauge = Registry::Get().GetGauge("test/gauge_nan");
  gauge->Reset();
  gauge->Set(4.0);
  // A NaN sample (e.g. a 0/0 duration ratio from a worker) must leave the
  // high-water mark untouched.
  gauge->UpdateMax(std::numeric_limits<double>::quiet_NaN());
  EXPECT_DOUBLE_EQ(gauge->Value(), 4.0);
  gauge->UpdateMax(9.0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 9.0);
  // A NaN that reached the stored value via Set must not wedge UpdateMax:
  // the next real sample wins.
  gauge->Set(std::numeric_limits<double>::quiet_NaN());
  gauge->UpdateMax(2.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), 2.5);
}

TEST(Metrics, ConcurrentHistogramCountAndSumAreExact) {
  Histogram* histogram =
      Registry::Get().GetHistogram("test/concurrent_histogram");
  histogram->Reset();
  constexpr int kThreads = 8;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int i = 0; i < kRecords; ++i) histogram->Record(0.5);
    });
  }
  for (std::thread& thread : threads) thread.join();
  HistogramStats stats = histogram->Stats();
  EXPECT_EQ(stats.count, static_cast<uint64_t>(kThreads) * kRecords);
  EXPECT_DOUBLE_EQ(stats.sum, 0.5 * kThreads * kRecords);
  EXPECT_DOUBLE_EQ(stats.min, 0.5);
  EXPECT_DOUBLE_EQ(stats.max, 0.5);
  EXPECT_DOUBLE_EQ(stats.mean, 0.5);
}

TEST(Metrics, HistogramBucketPlacement) {
  Histogram* histogram = Registry::Get().GetHistogram("test/buckets");
  histogram->Reset();
  histogram->Record(1e-7);  // below the first bound -> bucket 0
  histogram->Record(1e-6);  // exactly the first bound -> bucket 0
  histogram->Record(3e-6);  // (2e-6, 4e-6] -> bucket 2
  histogram->Record(1.0);
  EXPECT_EQ(histogram->BucketCount(0), 2u);
  EXPECT_EQ(histogram->BucketCount(2), 1u);
  // 1.0 lands in the bucket whose inclusive upper bound first reaches 1.0.
  uint64_t total = 0;
  size_t one_bucket = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    total += histogram->BucketCount(i);
    if (histogram->BucketCount(i) == 1 && i > 2) one_bucket = i;
  }
  EXPECT_EQ(total, 4u);
  EXPECT_GE(Histogram::BucketBound(one_bucket), 1.0);
  EXPECT_LT(Histogram::BucketBound(one_bucket - 1), 1.0);
  EXPECT_TRUE(std::isinf(
      Histogram::BucketBound(Histogram::kNumBuckets - 1)));
}

TEST(Metrics, MismatchedKindDies) {
  Registry::Get().GetCounter("test/kind_collision");
  EXPECT_DEATH(Registry::Get().GetGauge("test/kind_collision"), "");
}

TEST(Metrics, TextDumpAndSnapshot) {
  Registry::Get().GetCounter("test/dump_counter")->Reset();
  Registry::Get().GetCounter("test/dump_counter")->Increment(7);
  Registry::Get().GetGauge("test/dump_gauge")->Set(1.5);
  Registry::Get().GetHistogram("test/dump_histogram")->Record(0.25);

  Registry::Snapshot snapshot = Registry::Get().TakeSnapshot();
  EXPECT_EQ(snapshot.counters.at("test/dump_counter"), 7u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("test/dump_gauge"), 1.5);
  EXPECT_EQ(snapshot.histograms.at("test/dump_histogram").count, 1u);

  std::string dump = Registry::Get().TextDump();
  EXPECT_NE(dump.find("test/dump_counter"), std::string::npos);
  EXPECT_NE(dump.find("test/dump_gauge"), std::string::npos);
  EXPECT_NE(dump.find("test/dump_histogram"), std::string::npos);
}

TEST(Metrics, JsonDumpRoundTrips) {
  Registry::Get().GetCounter("test/json_counter")->Reset();
  Registry::Get().GetCounter("test/json_counter")->Increment(11);
  Registry::Get().GetGauge("test/json_gauge")->Set(-2.5);
  Histogram* histogram = Registry::Get().GetHistogram("test/json_histogram");
  histogram->Reset();
  histogram->Record(1.0);
  histogram->Record(3.0);

  JsonValue root = ParseOrDie(Registry::Get().JsonDump());
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  EXPECT_DOUBLE_EQ(
      root.at("counters").at("test/json_counter").number, 11.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test/json_gauge").number, -2.5);
  const JsonValue& h = root.at("histograms").at("test/json_histogram");
  EXPECT_DOUBLE_EQ(h.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(h.at("sum").number, 4.0);
  EXPECT_DOUBLE_EQ(h.at("min").number, 1.0);
  EXPECT_DOUBLE_EQ(h.at("max").number, 3.0);
  EXPECT_DOUBLE_EQ(h.at("mean").number, 2.0);
}

TEST(Metrics, ResetAllZeroesEverything) {
  Registry::Get().GetCounter("test/resettable")->Increment(5);
  Registry::Get().GetGauge("test/resettable_gauge")->Set(5.0);
  Registry::Get().GetHistogram("test/resettable_histogram")->Record(5.0);
  Registry::Get().ResetAll();
  EXPECT_EQ(Registry::Get().GetCounter("test/resettable")->Value(), 0u);
  EXPECT_DOUBLE_EQ(
      Registry::Get().GetGauge("test/resettable_gauge")->Value(), 0.0);
  EXPECT_EQ(
      Registry::Get().GetHistogram("test/resettable_histogram")->Count(),
      0u);
}

// ---------------------------------------------------------------------------
// Quantiles
// ---------------------------------------------------------------------------

// Same nearest-rank convention as HistogramQuantile: k = max(1, ceil(q*n)).
double SortedQuantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return samples[rank - 1];
}

TEST(Quantiles, WithinBucketRelativeError) {
  Histogram* histogram = Registry::Get().GetHistogram("test/quantile_error");
  histogram->Reset();
  // Log-spaced samples spanning ~6 decades, plus a heavy cluster near the
  // median so the interpolation has to work inside a populated bucket.
  std::vector<double> samples;
  for (int i = 0; i < 600; ++i) {
    samples.push_back(1e-5 * std::pow(10.0, i / 100.0));
  }
  for (int i = 0; i < 400; ++i) {
    samples.push_back(0.01 + 1e-4 * i);
  }
  for (double s : samples) histogram->Record(s);
  HistogramStats stats = histogram->Stats();
  ASSERT_EQ(stats.count, samples.size());
  // Base-2 exponential buckets bound any in-bucket estimate to within 2x of
  // the true sample quantile.
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    double estimate = HistogramQuantile(stats, q);
    double truth = SortedQuantile(samples, q);
    EXPECT_LE(estimate, truth * 2.0) << "q=" << q;
    EXPECT_GE(estimate, truth / 2.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(stats.p50, HistogramQuantile(stats, 0.5));
  EXPECT_DOUBLE_EQ(stats.p999, HistogramQuantile(stats, 0.999));
}

TEST(Quantiles, ExactOnConstantDistribution) {
  Histogram* histogram = Registry::Get().GetHistogram("test/quantile_const");
  histogram->Reset();
  for (int i = 0; i < 1000; ++i) histogram->Record(0.037);
  HistogramStats stats = histogram->Stats();
  // The min/max clamp makes constant distributions exact, not just 2x-close.
  EXPECT_DOUBLE_EQ(stats.p50, 0.037);
  EXPECT_DOUBLE_EQ(stats.p90, 0.037);
  EXPECT_DOUBLE_EQ(stats.p99, 0.037);
  EXPECT_DOUBLE_EQ(stats.p999, 0.037);
}

TEST(Quantiles, SingleSampleIsExact) {
  Histogram* histogram = Registry::Get().GetHistogram("test/quantile_single");
  histogram->Reset();
  histogram->Record(1.25);
  HistogramStats stats = histogram->Stats();
  EXPECT_DOUBLE_EQ(stats.p50, 1.25);
  EXPECT_DOUBLE_EQ(stats.p999, 1.25);
}

TEST(Quantiles, EmptyHistogramIsAllZero) {
  Histogram* histogram = Registry::Get().GetHistogram("test/quantile_empty");
  histogram->Reset();
  HistogramStats stats = histogram->Stats();
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.min, 0.0);
  EXPECT_DOUBLE_EQ(stats.max, 0.0);
  EXPECT_DOUBLE_EQ(stats.p50, 0.0);
  EXPECT_DOUBLE_EQ(stats.p999, 0.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(stats, 0.5), 0.0);
  // Reset after samples restores the empty contract (min/max never leak the
  // +/-inf sentinels).
  histogram->Record(9.0);
  histogram->Reset();
  stats = histogram->Stats();
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.min, 0.0);
  EXPECT_DOUBLE_EQ(stats.p99, 0.0);
}

TEST(Quantiles, SurfacedInTextAndJsonDumps) {
  Histogram* histogram = Registry::Get().GetHistogram("test/quantile_dump");
  histogram->Reset();
  for (int i = 0; i < 100; ++i) histogram->Record(0.5);
  std::string text = Registry::Get().TextDump();
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("p999"), std::string::npos);
  JsonValue root = ParseOrDie(Registry::Get().JsonDump());
  const JsonValue& h = root.at("histograms").at("test/quantile_dump");
  EXPECT_DOUBLE_EQ(h.at("p50").number, 0.5);
  EXPECT_DOUBLE_EQ(h.at("p90").number, 0.5);
  EXPECT_DOUBLE_EQ(h.at("p99").number, 0.5);
  EXPECT_DOUBLE_EQ(h.at("p999").number, 0.5);
}

TEST(Quantiles, SubtractHistogramStatsIsolatesTheDelta) {
  Histogram* histogram = Registry::Get().GetHistogram("test/quantile_delta");
  histogram->Reset();
  for (int i = 0; i < 50; ++i) histogram->Record(1e-4);
  HistogramStats before = histogram->Stats();
  for (int i = 0; i < 200; ++i) histogram->Record(0.25);
  HistogramStats after = histogram->Stats();

  HistogramStats delta = SubtractHistogramStats(after, before);
  EXPECT_EQ(delta.count, 200u);
  EXPECT_NEAR(delta.sum, 50.0, 1e-9);
  // Quantiles come from the delta buckets: the 1e-4 samples recorded before
  // the baseline must not drag p50 down.
  EXPECT_GE(delta.p50, 0.25 / 2.0);
  EXPECT_LE(delta.p50, 0.25 * 2.0);
  // Empty delta collapses to the all-zero contract.
  HistogramStats none = SubtractHistogramStats(after, after);
  EXPECT_EQ(none.count, 0u);
  EXPECT_DOUBLE_EQ(none.p50, 0.0);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Enable();
    Tracer::Get().Clear();
  }
  void TearDown() override {
    Tracer::Get().Clear();
    Tracer::Get().Disable();
  }
};

TEST_F(TracerTest, NestedSpansAreWellFormed) {
  {
    OBS_SPAN("outer");
    OBS_SPAN("middle");
    { OBS_SPAN("inner"); }
  }
  std::vector<SpanEvent> events = Tracer::Get().Events();
  ASSERT_EQ(events.size(), 3u);
  // Events() sorts by begin time: outer opened first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 2);
  // Same thread, and each child nests inside its parent.
  EXPECT_EQ(events[0].tid, events[2].tid);
  EXPECT_LE(events[0].begin_us, events[1].begin_us);
  EXPECT_GE(events[0].end_us, events[1].end_us);
  EXPECT_LE(events[1].begin_us, events[2].begin_us);
  EXPECT_GE(events[1].end_us, events[2].end_us);
  for (const SpanEvent& event : events) {
    EXPECT_GE(event.end_us, event.begin_us);
  }
}

TEST_F(TracerTest, SpansWhileDisabledAreDropped) {
  Tracer::Get().Disable();
  { OBS_SPAN("invisible"); }
  Tracer::Get().Enable();
  EXPECT_TRUE(Tracer::Get().Events().empty());
}

TEST_F(TracerTest, RingBufferEvictsOldest) {
  constexpr size_t kCapacity = 16;
  Tracer::Get().Enable(kCapacity);
  uint64_t dropped_before = Tracer::Get().dropped();
  for (int i = 0; i < 50; ++i) {
    ScopedSpan span("evict/" + std::to_string(i));
  }
  std::vector<SpanEvent> events = Tracer::Get().Events();
  EXPECT_EQ(events.size(), kCapacity);
  EXPECT_EQ(Tracer::Get().dropped() - dropped_before, 50 - kCapacity);
  // The survivors are exactly the newest spans (order-independent: spans
  // opened in a tight loop can share a microsecond timestamp).
  std::set<std::string> names;
  for (const SpanEvent& event : events) names.insert(event.name);
  for (size_t i = 50 - kCapacity; i < 50; ++i) {
    EXPECT_EQ(names.count("evict/" + std::to_string(i)), 1u) << i;
  }
}

TEST_F(TracerTest, SpansFromMultipleThreadsAllRetained) {
  constexpr int kThreads = 4;
  constexpr int kSpans = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpans; ++i) {
        ScopedSpan span("thread/" + std::to_string(t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::map<std::string, SpanRollup> rollup = Tracer::Get().Rollup();
  for (int t = 0; t < kThreads; ++t) {
    const SpanRollup& r = rollup.at("thread/" + std::to_string(t));
    EXPECT_EQ(r.count, static_cast<uint64_t>(kSpans));
    EXPECT_GE(r.total_us, 0);
  }
}

TEST_F(TracerTest, ChromeTraceExportParses) {
  {
    OBS_SPAN("export/parent");
    OBS_SPAN("export/child");
  }
  std::string path = ::testing::TempDir() + "/trace.json";
  ASSERT_TRUE(Tracer::Get().WriteChromeTrace(path));
  JsonValue root = ParseOrDie(ReadFile(path));
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
  size_t complete_events = 0;
  bool saw_parent = false;
  for (const JsonValue& event : events.array) {
    const std::string& ph = event.at("ph").string;
    if (ph == "X") {
      ++complete_events;
      EXPECT_TRUE(event.has("ts"));
      EXPECT_TRUE(event.has("dur"));
      EXPECT_TRUE(event.has("tid"));
      if (event.at("name").string == "export/parent") saw_parent = true;
    }
  }
  EXPECT_EQ(complete_events, 2u);
  EXPECT_TRUE(saw_parent);
  std::remove(path.c_str());
}

TEST_F(TracerTest, RequestTraceEmitsOneAsyncTrack) {
  RequestTrace trace = RequestTrace::Begin();
  EXPECT_NE(trace.id(), 0u);
  int64_t t0 = trace.begin_us();
  trace.Phase("queue", t0, t0 + 1);
  trace.Mark("prefix_hit");
  trace.Phase("decode_step", t0 + 1, t0 + 2);
  // Ensure the real End() timestamp lands after the fabricated phase ends.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  trace.End("serve/request");

  std::vector<AsyncSpanEvent> events = Tracer::Get().AsyncEvents();
  ASSERT_EQ(events.size(), 4u);
  // All events share the request's track and the enclosing request span
  // sorts first (same begin, latest end wins the tie).
  for (const AsyncSpanEvent& event : events) {
    EXPECT_EQ(event.track, trace.id());
    EXPECT_GE(event.begin_us, t0);
    EXPECT_GE(event.end_us, event.begin_us);
  }
  EXPECT_EQ(events[0].name, "serve/request");
  for (const AsyncSpanEvent& event : events) {
    EXPECT_LE(event.begin_us, events[0].end_us);
    EXPECT_LE(event.end_us, events[0].end_us);
  }
}

TEST_F(TracerTest, DistinctRequestsGetDistinctTracks) {
  RequestTrace a = RequestTrace::Begin();
  RequestTrace b = RequestTrace::Begin();
  EXPECT_NE(a.id(), b.id());
  a.End("serve/request");
  b.End("serve/request");
  std::vector<AsyncSpanEvent> events = Tracer::Get().AsyncEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].track, events[1].track);
}

TEST_F(TracerTest, AsyncEventsDroppedWhileDisabled) {
  Tracer::Get().Disable();
  RequestTrace trace = RequestTrace::Begin();
  trace.Mark("invisible");
  trace.End("serve/request");
  Tracer::Get().Enable();
  EXPECT_TRUE(Tracer::Get().AsyncEvents().empty());
  // Ids still allocate while disabled so responses always carry one.
  EXPECT_NE(trace.id(), 0u);
}

TEST_F(TracerTest, ChromeTraceExportsAsyncRequestEvents) {
  RequestTrace trace = RequestTrace::Begin();
  int64_t t0 = trace.begin_us();
  trace.Phase("queue", t0, t0 + 25);
  trace.Mark("shed");
  // Keep End() strictly after begin_us so the lifecycle span exports as a
  // b/e pair rather than collapsing to a zero-width instant.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  trace.End("serve/request");

  std::string path = ::testing::TempDir() + "/async_trace.json";
  ASSERT_TRUE(Tracer::Get().WriteChromeTrace(path));
  JsonValue root = ParseOrDie(ReadFile(path));
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
  size_t begins = 0, ends = 0, instants = 0;
  std::set<std::string> ids;
  for (const JsonValue& event : events.array) {
    const std::string& ph = event.at("ph").string;
    if (ph != "b" && ph != "e" && ph != "n") continue;
    EXPECT_EQ(event.at("cat").string, "request");
    EXPECT_TRUE(event.has("id"));
    EXPECT_EQ(event.at("id").string.substr(0, 2), "0x");
    ids.insert(event.at("id").string);
    if (ph == "b") ++begins;
    if (ph == "e") ++ends;
    if (ph == "n") ++instants;
  }
  // queue + serve/request as begin/end pairs; the zero-width "shed" mark as
  // an instant. All on one async id (= one swimlane per request).
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(ids.size(), 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

TEST_F(TracerTest, RunManifestRoundTrips) {
  Registry::Get().GetCounter("test/manifest_counter")->Reset();
  Registry::Get().GetCounter("test/manifest_counter")->Increment(3);
  { OBS_SPAN("manifest/span"); }

  RunManifest manifest("obs_test");
  manifest.AddConfig("domain", std::string("umls"));
  manifest.AddConfig("triplets", static_cast<int64_t>(96));
  manifest.AddConfig("lr", 0.001);

  std::string path = ::testing::TempDir() + "/manifest.json";
  ASSERT_TRUE(manifest.Write(path));
  JsonValue root = ParseOrDie(ReadFile(path));
  EXPECT_EQ(root.at("bench").string, "obs_test");
  EXPECT_EQ(root.at("config").at("domain").string, "umls");
  EXPECT_DOUBLE_EQ(root.at("config").at("triplets").number, 96.0);
  EXPECT_DOUBLE_EQ(root.at("config").at("lr").number, 0.001);
  EXPECT_DOUBLE_EQ(
      root.at("metrics").at("counters").at("test/manifest_counter").number,
      3.0);
  const JsonValue& span = root.at("spans").at("manifest/span");
  EXPECT_DOUBLE_EQ(span.at("count").number, 1.0);
  EXPECT_GE(span.at("total_seconds").number, 0.0);
  EXPECT_TRUE(root.has("spans_dropped"));
  std::remove(path.c_str());
}

TEST(Manifest, WriteToBadPathFails) {
  RunManifest manifest("obs_test");
  EXPECT_FALSE(manifest.Write("/nonexistent-dir/manifest.json"));
}

TEST(Json, EscapedStringsRoundTrip) {
  RunManifest manifest("quotes\"and\\slashes\nnewline");
  std::string json = manifest.ToJson();
  JsonValue root = ParseOrDie(json);
  EXPECT_EQ(root.at("bench").string, "quotes\"and\\slashes\nnewline");
}

}  // namespace
}  // namespace infuserki::obs
