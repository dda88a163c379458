// The two serving workloads. Both drive serve::InferenceServer::Submit from
// one generator thread (this one) and read the server's own counters and
// histograms as before/after deltas of obs::Registry snapshots.
//
// serve_chat: closed loop, max_batch_rows requests outstanding, unique MCQ
//   prompts, long greedy decodes under one published ungated adapter.
// serve_burst: open loop over a seeded burst schedule from three tenants at
//   three priority tiers, short prompts from a Zipf-hot pool, a few output
//   tokens each, base model.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/adapter_stack.h"
#include "kg/mcq.h"
#include "kg/synth.h"
#include "kg/templates.h"
#include "model/generation.h"
#include "model/serve_adapter.h"
#include "model/transformer.h"
#include "obs/trace.h"
#include "perfbench/workloads.h"
#include "serve/server.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace infuserki::perfbench {
namespace {

// The paper's model shape (bench/bench_common.h MakeConfig defaults).
constexpr size_t kDim = 64;
constexpr size_t kLayers = 8;
constexpr size_t kHeads = 4;
constexpr size_t kMaxSeqLen = 96;
constexpr size_t kBatchRows = 8;
// Set-up varies ±10% between repeats in one process; the median of 15 keeps
// setup_s steady across runs.
constexpr int kSetupRepeats = 15;

// serve_chat draws every prompt from its own triplet, so the KG bounds the
// requests one run can send without repeating a prompt.
constexpr size_t kChatTriplets = 2400;
constexpr size_t kChatWarmup = kBatchRows;
// Output caps are drawn per request from [kChatMinNew, kMaxSeqLen]; the
// server clamps them at max_seq_len, which ~34-token prompts reach after
// ~62 tokens. Unequal lengths keep the closed loop from settling into
// waves of requests that all start and finish together.
constexpr size_t kChatMinNew = 32;
constexpr size_t kWarmupNewTokens = 8;

// serve_burst traffic.
constexpr size_t kBurstTriplets = 240;
constexpr size_t kBurstPool = 32;
constexpr size_t kBurstCandidates = 64;
constexpr size_t kBurstNewTokens = 8;
constexpr double kBurstMeanQps = 240.0;
constexpr size_t kBurstSize = 32;
constexpr std::chrono::milliseconds kBurstDeadline{1000};

// SLO limits. Fixed once from the seed commit's own numbers (README.md,
// "SLO limits") and never re-derived, so attainment is comparable across
// commits.
constexpr SloLimits kChatSlo{/*ttft_ms=*/50.0, /*itl_ms=*/10.0};
constexpr SloLimits kBurstSlo{/*ttft_ms=*/100.0, /*itl_ms=*/10.0};

const char* const kTenants[] = {"interactive", "batch", "bulk"};
const serve::Priority kTenantPriority[] = {
    serve::Priority::kHigh, serve::Priority::kNormal, serve::Priority::kLow};

model::TransformerConfig PaperShape(size_t vocab_size) {
  model::TransformerConfig config;
  config.vocab_size = vocab_size;
  config.dim = kDim;
  config.num_layers = kLayers;
  config.num_heads = kHeads;
  config.ffn_hidden = kDim * 2;
  config.max_seq_len = kMaxSeqLen;
  return config;
}

/// Everything a serving run needs before its timed window.
struct ServeFixture {
  std::vector<std::string> prompts;  // unique; order is the send order
  text::Tokenizer tokenizer;
  std::unique_ptr<model::TransformerLM> lm;
  std::shared_ptr<const model::PositionWiseAdapter> adapter;
  std::unique_ptr<serve::InferenceServer> server;
  double kg_build_s = 0.0;
};

/// Unique prompts built from the KG's MCQs, shuffled by `seed`.
std::vector<std::string> McqPrompts(size_t triplets, uint64_t seed,
                                    bool question_only, double* kg_build_s) {
  kg::SynthOptions synth;
  synth.num_triplets = triplets;
  synth.seed = seed;
  Clock::time_point start = Clock::now();
  kg::KnowledgeGraph graph = kg::SyntheticUmls(synth);
  *kg_build_s = SecondsSince(start);
  kg::TemplateEngine templates;
  kg::McqBuilder builder(&graph, &templates);
  util::Rng rng(seed + 1);
  std::vector<std::string> prompts;
  std::set<std::string> seen;
  for (const kg::Mcq& mcq : builder.BuildAll(/*template_id=*/1, &rng)) {
    std::string prompt = question_only ? kg::FormatQuestionPrompt(mcq)
                                       : kg::FormatMcqPrompt(mcq);
    if (seen.insert(prompt).second) prompts.push_back(std::move(prompt));
  }
  rng.Shuffle(&prompts);
  return prompts;
}

/// Sends `prompts` as one wave and returns their responses.
std::vector<serve::Response> WarmUp(serve::InferenceServer* server,
                                    const std::vector<std::string>& prompts,
                                    size_t max_new) {
  std::vector<std::future<serve::Response>> pending;
  for (const std::string& prompt : prompts) {
    serve::Request request;
    request.prompt = prompt;
    request.max_new_tokens = max_new;
    pending.push_back(server->Submit(std::move(request)));
  }
  std::vector<serve::Response> responses;
  for (auto& future : pending) responses.push_back(future.get());
  return responses;
}

/// One request as the client saw it. Times are seconds from the window
/// start; `scheduled_s` is when it was due, `sent_s` when Submit ran.
struct Sent {
  size_t prompt = 0;
  size_t max_new = 0;
  double scheduled_s = 0.0;
  double sent_s = 0.0;
  std::future<serve::Response> future;
  serve::Response response;
};

/// True for the outcomes the server is designed to produce under load: a
/// shed (kResourceExhausted) or an expired deadline. Anything else that is
/// not OK is a failed operation.
bool ExpectedRefusal(const serve::Response& response) {
  util::StatusCode code = response.status.code();
  return code == util::StatusCode::kResourceExhausted ||
         code == util::StatusCode::kDeadlineExceeded;
}

double LatencyMs(const Sent& sent) {
  return (sent.sent_s - sent.scheduled_s + sent.response.total_seconds) * 1e3;
}

/// Latencies of the served requests.
std::vector<double> ServedLatenciesMs(const std::vector<Sent>& requests) {
  std::vector<double> latency_ms;
  for (const Sent& sent : requests) {
    if (sent.response.status.ok()) latency_ms.push_back(LatencyMs(sent));
  }
  return latency_ms;
}

/// Length of the union of the requests' [scheduled, done] intervals: the
/// wall time during which the server had work.
double BusySeconds(const std::vector<Sent>& requests) {
  std::vector<std::pair<double, double>> spans;
  for (const Sent& sent : requests) {
    spans.emplace_back(sent.scheduled_s,
                       sent.sent_s + sent.response.total_seconds);
  }
  std::sort(spans.begin(), spans.end());
  double busy = 0.0;
  double open = -1.0;
  double close = -1.0;
  for (const auto& [begin, end] : spans) {
    if (begin > close) {
      busy += close - open;
      open = begin;
      close = end;
    } else {
      close = std::max(close, end);
    }
  }
  return busy + (close - open);
}

/// Records each request as one async span from its scheduled send to its
/// response, on the server's own track for it (Response::request_id).
void TraceRequests(const std::vector<Sent>& requests, int64_t window_us) {
  obs::Tracer& tracer = obs::Tracer::Get();
  for (const Sent& sent : requests) {
    int64_t begin = window_us + static_cast<int64_t>(sent.scheduled_s * 1e6);
    int64_t end = begin + static_cast<int64_t>(LatencyMs(sent) * 1e3);
    tracer.RecordAsync(sent.response.request_id, "perfbench/request", begin,
                       end);
  }
}

/// Results of one timed window.
struct Window {
  std::vector<Sent> requests;
  obs::Registry::Snapshot before;
  obs::Registry::Snapshot after;
  double wall_s = 0.0;        // from the first send to the last response
  double tokens_per_s = 0.0;  // output tokens per second of the window
  std::vector<double> gen_lag_ms;
};

/// The workload's own end-to-end metrics of a window, and the gates every
/// serving workload must pass.
void ReportWindow(const Window& window, const SloLimits& slo, bool chat,
                    WorkloadReport* report) {
  std::vector<double> ttft_ms;
  std::vector<RequestOutcome> outcomes;
  uint64_t ok = 0;
  uint64_t failed = 0;
  for (const Sent& sent : window.requests) {
    const serve::Response& response = sent.response;
    RequestOutcome outcome;
    outcome.ok = response.status.ok();
    if (outcome.ok) {
      ++ok;
      if (response.ttft_seconds > 0.0) {
        outcome.ttft_ms = (sent.sent_s - sent.scheduled_s +
                           response.ttft_seconds) * 1e3;
        ttft_ms.push_back(outcome.ttft_ms);
      }
      if (response.tokens.size() >= 2) {
        outcome.itl_ms =
            (response.total_seconds - response.ttft_seconds) * 1e3 /
            static_cast<double>(response.tokens.size() - 1);
      }
    } else if (!ExpectedRefusal(response)) {
      ++failed;
    }
    outcomes.push_back(outcome);
  }
  report->attempted = window.requests.size();
  report->failed = failed;
  report->per_layer["serve.requests_sent"] =
      static_cast<double>(window.requests.size());
  report->per_layer["serve.requests_ok"] = static_cast<double>(ok);
  report->per_layer["serve.requests_failed"] = static_cast<double>(failed);

  auto percentile = [&](const std::string& name, size_t samples, double q,
                        double value_ms) {
    if (PercentileSupported(samples, q)) {
      report->workload_metrics.push_back({name, value_ms, "ms"});
    } else {
      report->withheld.push_back(name + " (n=" + std::to_string(samples) +
                                 ", fewer than 10 samples beyond it)");
    }
  };
  percentile("ttft_p50_ms", ttft_ms.size(), 0.5, NearestRank(ttft_ms, 0.5));
  percentile("ttft_p99_ms", ttft_ms.size(), 0.99, NearestRank(ttft_ms, 0.99));
  // Per-gap samples exist only inside the server's histogram, so the ITL
  // percentiles are its bucket-interpolated quantiles (same rank rule).
  obs::HistogramStats itl = HistogramDelta(window.before, window.after,
                                           "serve/inter_token_seconds");
  percentile("itl_p50_ms", itl.count, 0.5,
             obs::HistogramQuantile(itl, 0.5) * 1e3);
  percentile("itl_p99_ms", itl.count, 0.99,
             obs::HistogramQuantile(itl, 0.99) * 1e3);
  if (chat) {
    report->workload_metrics.push_back(
        {"output_tokens_per_s", window.tokens_per_s, "tok/s"});
  }
  report->workload_metrics.push_back(
      {"slo_attainment", SloAttainment(outcomes, slo), "share"});

  auto delta = [&](const char* name) {
    return CounterDelta(window.before, window.after, name);
  };
  const uint64_t requests = delta("serve/requests");
  const uint64_t completed = delta("serve/completed");
  const uint64_t shed = delta("serve/shed");
  const uint64_t deadline = delta("serve/deadline_misses");
  const uint64_t cancelled = delta("serve/cancelled");
  const uint64_t failures = delta("serve/failures");
  const uint64_t errors = shed + deadline + cancelled + failures;
  report->workload_metrics.push_back(
      {"error_rate",
       requests > 0 ? static_cast<double>(errors) /
                          static_cast<double>(requests)
                    : 0.0,
       "share"});

  report->Gate(requests == window.requests.size() &&
                   requests == completed + errors,
               "serve_conservation",
               "sent=" + std::to_string(window.requests.size()) +
                   " requests=" + std::to_string(requests) +
                   " completed=" + std::to_string(completed) +
                   " shed=" + std::to_string(shed) +
                   " deadline=" + std::to_string(deadline) +
                   " cancelled=" + std::to_string(cancelled) +
                   " failures=" + std::to_string(failures));
  report->Gate(ok > 0, "served_some", "no request was served in the window");
}

/// Serve-layer metrics of the traced window.
void ServeLayerMetrics(const Window& window, WorkloadReport* report) {
  std::map<std::string, double>& m = report->per_layer;
  CollectCommonLayerMetrics(window.before, window.after, &m);
  auto count = [&](const char* name) {
    return static_cast<double>(
        CounterDelta(window.before, window.after, name));
  };
  obs::HistogramStats queue = HistogramDelta(window.before, window.after,
                                             "serve/queue_wait_seconds");
  m["serve.queue_wait_ms_p50"] = obs::HistogramQuantile(queue, 0.5) * 1e3;
  m["serve.queue_wait_ms_p99"] = obs::HistogramQuantile(queue, 0.99) * 1e3;
  m["serve.admitted"] = count("serve/admitted");
  m["serve.shed"] = count("serve/shed");
  m["serve.shed_queue_full"] = count("serve/shed_queue_full");
  m["serve.shed_brownout"] = count("serve/shed_brownout");
  m["serve.shed_infeasible"] = count("serve/shed_infeasible");
  m["serve.shed_rate_limited"] = count("serve/shed_rate_limited");
  obs::HistogramStats brownout = HistogramDelta(
      window.before, window.after, "serve/brownout_level_samples");
  m["serve.brownout_level_mean"] =
      brownout.count > 0 ? brownout.sum / static_cast<double>(brownout.count)
                         : 0.0;
  double hits = count("serve/prefix_hits");
  double lookups = hits + count("serve/prefix_misses");
  m["serve.prefix_hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
  m["serve.prefix_lookups"] = lookups;
  m["serve.prefix_evictions"] = count("serve/evictions");
  double forward_s = HistogramDelta(window.before, window.after,
                                    "engine/batched_step_seconds")
                         .sum;
  double busy_s = BusySeconds(window.requests);
  m["serve.outside_forward_share"] =
      busy_s > 0.0 ? std::max(0.0, 1.0 - forward_s / busy_s) : 0.0;
  // The scheduler thread records no spans; its split comes from the
  // engine's step histogram against the time the server had work.
  SpanTime forward;
  forward.count = CounterDelta(window.before, window.after,
                               "engine/batched_steps");
  forward.total_s = forward.self_s = forward_s;
  SpanTime outside;
  outside.total_s = outside.self_s = std::max(0.0, busy_s - forward_s);
  report->thread_rows = {
      {"model/BatchedDecodeSession::Step (scheduler thread)", forward},
      {"serve/scheduler outside the forward (scheduler thread)", outside}};
  m["bench.gen_lag_p99_ms"] = NearestRank(window.gen_lag_ms, 0.99);
}

/// Checks a seeded sample of served responses against single-sequence
/// model::GreedyDecode with the same adapter and output cap, token for
/// token.
void GateGreedyMatch(const ServeFixture& fixture, const Window& window,
                     uint64_t seed, size_t sample, WorkloadReport* report) {
  std::vector<const Sent*> served;
  for (const Sent& sent : window.requests) {
    if (sent.response.status.ok()) served.push_back(&sent);
  }
  util::Rng rng(seed + 11);
  rng.Shuffle(&served);
  served.resize(std::min(served.size(), sample));
  size_t mismatches = 0;
  for (const Sent* sent : served) {
    model::PositionWiseAdapterHook hook(fixture.adapter.get());
    std::vector<int> prompt_ids = fixture.tokenizer.EncodeWithSpecials(
        fixture.prompts[sent->prompt], false);
    std::vector<int> expected = model::GreedyDecode(
        *fixture.lm, prompt_ids, sent->max_new, hook.Options());
    if (expected != sent->response.tokens) ++mismatches;
  }
  report->Gate(!served.empty() && mismatches == 0, "greedy_match",
               std::to_string(mismatches) + " of " +
                   std::to_string(served.size()) +
                   " sampled responses differ from GreedyDecode");
}

// -- serve_chat ------------------------------------------------------------

std::unique_ptr<ServeFixture> SetUpChat(uint64_t seed) {
  auto fixture = std::make_unique<ServeFixture>();
  fixture->prompts = McqPrompts(kChatTriplets, seed, /*question_only=*/false,
                                &fixture->kg_build_s);
  fixture->tokenizer = text::Tokenizer::Build(fixture->prompts);
  util::Rng rng(seed + 2);
  fixture->lm = std::make_unique<model::TransformerLM>(
      PaperShape(fixture->tokenizer.vocab_size()), &rng);

  core::AdapterStackOptions adapter_options;
  adapter_options.use_infuser = false;
  adapter_options.seed = seed + 3;
  core::KnowledgeAdapterStack stack(kDim, kLayers, adapter_options);
  util::StatusOr<std::shared_ptr<model::PositionWiseAdapter>> exported =
      stack.ExportPositionWise();
  CHECK(exported.ok()) << exported.status();
  fixture->adapter = *exported;

  serve::ServeOptions options;
  options.max_batch_rows = kBatchRows;
  options.queue_capacity = 2 * kBatchRows;
  options.default_max_new_tokens = kMaxSeqLen;
  fixture->server = std::make_unique<serve::InferenceServer>(
      *fixture->lm, fixture->tokenizer, options);
  serve::AdapterVersion version;
  version.sequence = 1;
  version.adapter = fixture->adapter;
  fixture->server->SwapAdapters(version);
  // Warm-up prompts come from the end of the list; the window sends from
  // the front, so no window prompt has been seen before.
  std::vector<std::string> warm(fixture->prompts.end() - kChatWarmup,
                                fixture->prompts.end());
  WarmUp(fixture->server.get(), warm, kWarmupNewTokens);
  return fixture;
}

Window ChatWindow(ServeFixture* fixture, double seconds, size_t* next_prompt,
                  util::Rng* lengths, bool traced) {
  Window window;
  // Decoded-token count sampled at each whole second of the window:
  // throughput is the median of the per-second rates, so a short stall of
  // the machine moves it less than a mean over the window would.
  const obs::Counter* decoded =
      obs::Registry::Get().GetCounter("engine/decode_tokens");
  std::vector<std::pair<double, uint64_t>> samples = {{0.0, decoded->Value()}};
  const size_t last_prompt = fixture->prompts.size() - kChatWarmup;
  obs::Registry& registry = obs::Registry::Get();
  window.before = registry.TakeSnapshot();
  const int64_t window_us = obs::NowMicros();
  const Clock::time_point start = Clock::now();
  std::vector<size_t> in_flight;
  obs::ScopedSpan window_span("perfbench/window");
  for (;;) {
    const double now = SecondsSince(start);
    if (now < seconds && now >= static_cast<double>(samples.size())) {
      samples.emplace_back(now, decoded->Value());
    }
    while (now < seconds && in_flight.size() < kBatchRows &&
           *next_prompt < last_prompt) {
      OBS_SPAN("serve/InferenceServer::Submit");
      Sent sent;
      sent.prompt = (*next_prompt)++;
      sent.max_new = static_cast<size_t>(lengths->UniformInt(
          kChatMinNew, static_cast<int64_t>(kMaxSeqLen)));
      sent.scheduled_s = sent.sent_s = SecondsSince(start);
      serve::Request request;
      request.prompt = fixture->prompts[sent.prompt];
      request.max_new_tokens = sent.max_new;
      sent.future = fixture->server->Submit(std::move(request));
      window.requests.push_back(std::move(sent));
      in_flight.push_back(window.requests.size() - 1);
    }
    if (in_flight.empty()) break;
    bool any = false;
    for (size_t i = 0; i < in_flight.size();) {
      Sent& sent = window.requests[in_flight[i]];
      if (sent.future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        sent.response = sent.future.get();
        in_flight[i] = in_flight.back();
        in_flight.pop_back();
        any = true;
      } else {
        ++i;
      }
    }
    if (!any) {
      window.requests[in_flight.front()].future.wait_for(
          std::chrono::microseconds(200));
    }
  }
  window.wall_s = SecondsSince(start);
  window.after = registry.TakeSnapshot();
  if (samples.size() < 2) samples.emplace_back(window.wall_s, decoded->Value());
  std::vector<double> rates;
  for (size_t i = 1; i < samples.size(); ++i) {
    rates.push_back(
        static_cast<double>(samples[i].second - samples[i - 1].second) /
        (samples[i].first - samples[i - 1].first));
  }
  window.tokens_per_s = Median(rates);
  if (traced) TraceRequests(window.requests, window_us);
  return window;
}

// -- serve_burst -----------------------------------------------------------

BurstSpec BurstTraffic(double seconds, size_t pool_size) {
  BurstSpec spec;
  spec.seconds = seconds;
  spec.mean_rate_qps = kBurstMeanQps;
  spec.burst_size = kBurstSize;
  spec.tenants = 3;
  spec.pool_size = pool_size;
  return spec;
}

std::unique_ptr<ServeFixture> SetUpBurst(uint64_t seed) {
  auto fixture = std::make_unique<ServeFixture>();
  fixture->prompts = McqPrompts(kBurstTriplets, seed, /*question_only=*/true,
                                &fixture->kg_build_s);
  fixture->prompts.resize(kBurstCandidates);
  fixture->tokenizer = text::Tokenizer::Build(fixture->prompts);
  util::Rng rng(seed + 2);
  fixture->lm = std::make_unique<model::TransformerLM>(
      PaperShape(fixture->tokenizer.vocab_size()), &rng);

  serve::ServeOptions options;
  options.max_batch_rows = kBatchRows;
  options.queue_capacity = 2 * kBatchRows;
  options.default_max_new_tokens = kBurstNewTokens;
  options.kv_budget_tokens = 160;
  options.admission.tenants["interactive"].weight = 2.0;
  options.admission.tenants["bulk"].rate_qps = kBurstMeanQps / 4.0;
  options.admission.tenants["bulk"].burst = 8.0;
  fixture->server = std::make_unique<serve::InferenceServer>(
      *fixture->lm, fixture->tokenizer, options);
  // One pass over the candidates warms the prefix cache and the server's
  // rate estimate. The pool keeps the first candidates whose greedy output
  // runs the full kBurstNewTokens without <eos>, so every served request
  // decodes the same number of tokens whatever the seed's model.
  std::vector<serve::Response> warm =
      WarmUp(fixture->server.get(), fixture->prompts, kBurstNewTokens);
  std::vector<std::string> pool;
  for (size_t i = 0; i < warm.size() && pool.size() < kBurstPool; ++i) {
    if (warm[i].tokens.size() == kBurstNewTokens) {
      pool.push_back(fixture->prompts[i]);
    }
  }
  CHECK(!pool.empty()) << "every burst candidate stopped at <eos>";
  fixture->prompts = std::move(pool);
  return fixture;
}

Window BurstWindow(ServeFixture* fixture, const std::vector<Arrival>& schedule,
                   double seconds, bool traced) {
  Window window;
  obs::Registry& registry = obs::Registry::Get();
  window.before = registry.TakeSnapshot();
  const int64_t window_us = obs::NowMicros();
  const Clock::time_point start = Clock::now();
  obs::ScopedSpan window_span("perfbench/window");
  window.requests.reserve(schedule.size());
  for (const Arrival& arrival : schedule) {
    // Open loop: wait only on the clock, never on the server.
    double wait = arrival.at_s - SecondsSince(start);
    if (wait > 0.0) {
      OBS_SPAN("perfbench/pace");
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    OBS_SPAN("serve/InferenceServer::Submit");
    Sent sent;
    sent.prompt = arrival.prompt;
    sent.max_new = kBurstNewTokens;
    sent.scheduled_s = arrival.at_s;
    sent.sent_s = SecondsSince(start);
    serve::Request request;
    request.prompt = fixture->prompts[arrival.prompt];
    request.max_new_tokens = sent.max_new;
    request.deadline = kBurstDeadline;
    request.tenant_id = kTenants[arrival.tenant];
    request.priority = kTenantPriority[arrival.tenant];
    sent.future = fixture->server->Submit(std::move(request));
    window.gen_lag_ms.push_back((sent.sent_s - sent.scheduled_s) * 1e3);
    window.requests.push_back(std::move(sent));
  }
  {
    OBS_SPAN("perfbench/drain");
    for (Sent& sent : window.requests) sent.response = sent.future.get();
  }
  window.wall_s = SecondsSince(start);
  window.after = registry.TakeSnapshot();
  double served_tokens = 0.0;
  for (const Sent& sent : window.requests) {
    if (sent.response.status.ok()) {
      served_tokens += static_cast<double>(sent.response.tokens.size());
    }
  }
  window.tokens_per_s = served_tokens / seconds;
  if (traced) TraceRequests(window.requests, window_us);
  return window;
}

/// Sets the serving fixture up kSetupRepeats times and keeps the last.
/// Returns the median set-up time and of that the KG build's.
template <typename SetUp>
std::unique_ptr<ServeFixture> RepeatedSetUp(const SetUp& set_up,
                                            double* setup_s,
                                            double* kg_build_s) {
  std::vector<double> setup;
  std::vector<double> kg_build;
  std::unique_ptr<ServeFixture> fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture.reset();
    Clock::time_point start = Clock::now();
    fixture = set_up();
    setup.push_back(SecondsSince(start));
    kg_build.push_back(fixture->kg_build_s);
  }
  *setup_s = Median(setup);
  *kg_build_s = Median(kg_build);
  return fixture;
}

}  // namespace

WorkloadReport RunServeChat(const RunOptions& options) {
  WorkloadReport report;
  double setup_s = 0.0;
  double kg_build_s = 0.0;
  std::unique_ptr<ServeFixture> fixture = RepeatedSetUp(
      [&] { return SetUpChat(options.seed); }, &setup_s, &kg_build_s);
  size_t next_prompt = 0;
  util::Rng lengths(options.seed + 5);
  auto run_window = [&](double seconds, bool traced) {
    return ChatWindow(fixture.get(), seconds, &next_prompt, &lengths, traced);
  };
  auto finish = [&](const Window& window) {
    ReportWindow(window, kChatSlo, /*chat=*/true, &report);
    GateGreedyMatch(*fixture, window, options.seed, 4, &report);
    report.Gate(next_prompt < fixture->prompts.size() - kChatWarmup,
                "unique_prompts", "the prompt pool ran out");
    report.SetEndToEnd(setup_s,
                       NearestRank(ServedLatenciesMs(window.requests), 0.5),
                       window.tokens_per_s);
  };
  if (!options.trace) {
    finish(run_window(options.seconds, false));
    return report;
  }

  // Traced run: an untraced half-window, then a traced one; the throughput
  // ratio between them is the tracing overhead.
  Window plain = run_window(options.seconds / 2.0, false);
  obs::Tracer::Get().Enable();
  Window traced = run_window(options.seconds / 2.0, true);
  obs::Tracer::Get().Disable();
  finish(traced);
  ServeLayerMetrics(traced, &report);
  std::map<std::string, double>& m = report.per_layer;
  m["obs.trace_overhead_pct"] =
      (plain.tokens_per_s / traced.tokens_per_s - 1.0) * 100.0;
  m["kg.build_s"] = kg_build_s;
  m["text.encode_us_p50"] = EncodeP50Us(fixture->tokenizer, fixture->prompts);

  // Layer probes on the model the window served: the adapter's share of an
  // 8-row decode step, and the step's kernel shapes at the mean KV length.
  std::vector<std::vector<int>> rows;
  size_t kv_rows = 0;
  for (size_t r = 0; r < kBatchRows; ++r) {
    rows.push_back(
        fixture->tokenizer.EncodeWithSpecials(fixture->prompts[r], false));
    kv_rows += (rows.back().size() + kMaxSeqLen) / 2;
  }
  m["model.adapter_step_ms_delta"] =
      AdapterStepDeltaMs(*fixture->lm, *fixture->adapter, rows, 48);
  std::vector<GemmShape> gemms;
  std::vector<AttentionShape> attention;
  ForwardShapes(fixture->lm->config(), kBatchRows, kv_rows / kBatchRows,
                &gemms, &attention);
  ReplayTensorShapes(gemms, attention, kHeads, kDim, 1.0,
                     static_cast<uint64_t>(m["tensor.gemm_flops"]), &m);
  report.spans = SpanSelfTimes(obs::Tracer::Get().Events());
  report.traced_window_s = traced.wall_s;
  return report;
}

WorkloadReport RunServeBurst(const RunOptions& options) {
  WorkloadReport report;
  double setup_s = 0.0;
  double kg_build_s = 0.0;
  std::unique_ptr<ServeFixture> fixture = RepeatedSetUp(
      [&] { return SetUpBurst(options.seed); }, &setup_s, &kg_build_s);
  const double seconds = options.trace ? options.seconds / 2.0
                                       : options.seconds;
  const std::vector<Arrival> schedule =
      BurstSchedule(BurstTraffic(seconds, fixture->prompts.size()),
                    options.seed);
  auto finish = [&](const Window& window) {
    ReportWindow(window, kBurstSlo, /*chat=*/false, &report);
    GateGreedyMatch(*fixture, window, options.seed, 4, &report);
    double lag_p99 = NearestRank(window.gen_lag_ms, 0.99);
    double limit_ms = MinInterArrivalGap(schedule) * 1e3;
    report.workload_metrics.push_back({"gen_lag_p99_ms", lag_p99, "ms"});
    report.Gate(lag_p99 <= limit_ms, "open_loop_generator",
                "generator ran " + FullNumber(lag_p99) +
                    " ms late at p99, more than the smallest gap of " +
                    FullNumber(limit_ms) + " ms; the run is invalid");
    report.SetEndToEnd(setup_s,
                       NearestRank(ServedLatenciesMs(window.requests), 0.5),
                       window.tokens_per_s);
  };
  if (!options.trace) {
    finish(BurstWindow(fixture.get(), schedule, seconds, false));
    return report;
  }

  // Traced run: the same schedule untraced, then traced; the median
  // latency ratio between them is the tracing overhead.
  Window plain = BurstWindow(fixture.get(), schedule, seconds, false);
  obs::Tracer::Get().Enable();
  Window traced = BurstWindow(fixture.get(), schedule, seconds, true);
  obs::Tracer::Get().Disable();
  finish(traced);
  ServeLayerMetrics(traced, &report);
  std::map<std::string, double>& m = report.per_layer;
  m["obs.trace_overhead_pct"] =
      (report.end_to_end[2].value /
           NearestRank(ServedLatenciesMs(plain.requests), 0.5) -
       1.0) * 100.0;
  m["kg.build_s"] = kg_build_s;
  m["text.encode_us_p50"] = EncodeP50Us(fixture->tokenizer, fixture->prompts);
  std::vector<GemmShape> gemms;
  std::vector<AttentionShape> attention;
  ForwardShapes(fixture->lm->config(), kBatchRows, 16, &gemms, &attention);
  ReplayTensorShapes(gemms, attention, kHeads, kDim, 1.0,
                     static_cast<uint64_t>(m["tensor.gemm_flops"]), &m);
  report.spans = SpanSelfTimes(obs::Tracer::Get().Events());
  report.traced_window_s = traced.wall_s;
  return report;
}

}  // namespace infuserki::perfbench
