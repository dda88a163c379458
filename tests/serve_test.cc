// Behavioral suite for the resilient serving layer (DESIGN.md §10): served
// token streams must stay bit-exact with single-threaded GreedyDecode
// through prefix reuse, load shedding, deadline expiry, transient-fault
// retries, KV-budget eviction, and in-batch degraded restarts.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/adapter_stack.h"
#include "model/generation.h"
#include "model/serve_adapter.h"
#include "model/transformer.h"
#include "obs/metrics.h"
#include "serve/adapter_registry.h"
#include "serve/prefix_cache.h"
#include "serve/server.h"
#include "text/tokenizer.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/status.h"

namespace infuserki::serve {
namespace {

using std::chrono::milliseconds;

/// Shared untrained model + tokenizer. Untrained weights are fine: the
/// suite compares served streams against GreedyDecode on the same model,
/// not against meaningful text.
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<std::string> corpus = {
        "alpha beta gamma delta epsilon zeta eta theta",
        "iota kappa lambda mu nu xi omicron pi rho sigma tau",
    };
    tokenizer_ = new text::Tokenizer(text::Tokenizer::Build(corpus));
    model::TransformerConfig config;
    config.vocab_size = tokenizer_->vocab_size();
    config.dim = 16;
    config.num_layers = 2;
    config.num_heads = 2;
    config.ffn_hidden = 32;
    config.max_seq_len = 32;
    util::Rng rng(7);
    lm_ = new model::TransformerLM(config, &rng);
  }
  static void TearDownTestSuite() {
    delete lm_;
    delete tokenizer_;
    lm_ = nullptr;
    tokenizer_ = nullptr;
  }

  void SetUp() override { util::FaultRegistry::Get().Clear(); }
  void TearDown() override { util::FaultRegistry::Get().Clear(); }

  static std::vector<int> Reference(
      const std::string& prompt, size_t max_new,
      const model::ForwardOptions& forward = {}) {
    return model::GreedyDecode(
        *lm_, tokenizer_->EncodeWithSpecials(prompt, false), max_new,
        forward);
  }

  /// The first `count` candidate prompts whose greedy continuation (under
  /// `forward`) has at least `min_tokens` tokens — tests that need
  /// mid-decode events (faults, cancellation) must decode more than one
  /// token, and what an untrained model emits per prompt is arbitrary.
  static std::vector<std::string> PromptsWithLongReference(
      size_t count, size_t min_tokens, size_t max_new,
      const model::ForwardOptions& forward = {}) {
    const std::vector<std::string> candidates = {
        "alpha beta gamma",  "iota kappa",    "sigma tau alpha",
        "delta epsilon",     "mu nu xi pi",   "theta iota omicron",
        "beta delta zeta",   "rho sigma",     "eta theta alpha beta",
    };
    std::vector<std::string> prompts;
    for (const std::string& prompt : candidates) {
      if (prompts.size() == count) break;
      if (Reference(prompt, max_new, forward).size() >= min_tokens) {
        prompts.push_back(prompt);
      }
    }
    if (prompts.size() < count) {
      ADD_FAILURE() << "only " << prompts.size()
                    << " candidate prompts decode " << min_tokens
                    << " tokens; " << count << " wanted";
    }
    return prompts;
  }

  static std::string PromptWithLongReference(size_t min_tokens,
                                             size_t max_new) {
    std::vector<std::string> prompts =
        PromptsWithLongReference(1, min_tokens, max_new);
    return prompts.empty() ? "alpha beta gamma" : prompts[0];
  }

  /// Serves four distinct prompts together in a batch of four under
  /// `version` while the third decode-step fault point hit fails for good
  /// (`max_attempts` 1). Exactly one row must degrade, restarting inside
  /// the batch, and every stream must match GreedyDecode under that
  /// version's adapter hook.
  static void ExpectOneRowDegradesInBatchBitExact(
      const AdapterVersion& version) {
    model::PositionWiseAdapterHook hook(version.adapter.get());
    const size_t max_new = 8;
    // Two tokens each: every row reaches the decode-step fault point, so
    // the four rows hit it at least four times between them.
    std::vector<std::string> prompts =
        PromptsWithLongReference(4, 2, max_new, hook.Options());
    ASSERT_EQ(prompts.size(), size_t{4});

    obs::Counter* degraded =
        obs::Registry::Get().GetCounter("serve/degraded");
    const uint64_t degraded_before = degraded->Value();
    ASSERT_TRUE(util::FaultRegistry::Get()
                    .Configure("serve/decode_step=fail@3")
                    .ok());
    ServeOptions options;
    options.max_batch_rows = 4;
    options.retry = {.max_attempts = 1};
    InferenceServer server(*lm_, *tokenizer_, options);
    ASSERT_TRUE(server.SwapAdapters(version).ok());

    std::vector<std::future<Response>> futures;
    for (const std::string& prompt : prompts) {
      futures.push_back(server.Submit({prompt, max_new}));
    }
    int degraded_responses = 0;
    for (size_t i = 0; i < prompts.size(); ++i) {
      Response response = futures[i].get();
      ASSERT_TRUE(response.status.ok()) << prompts[i] << ": "
                                        << response.status;
      EXPECT_EQ(response.adapter_sequence, version.sequence) << prompts[i];
      EXPECT_EQ(response.tokens,
                Reference(prompts[i], max_new, hook.Options()))
          << prompts[i];
      if (response.degraded) ++degraded_responses;
    }
    EXPECT_EQ(degraded_responses, 1);
    EXPECT_EQ(degraded->Value() - degraded_before, uint64_t{1});
  }

  static model::TransformerLM* lm_;
  static text::Tokenizer* tokenizer_;
};

model::TransformerLM* ServeFixture::lm_ = nullptr;
text::Tokenizer* ServeFixture::tokenizer_ = nullptr;

TEST_F(ServeFixture, ServesBitExactGreedyDecodeAndReusesPrefix) {
  ServeOptions options;
  options.max_batch_rows = 4;
  options.kv_budget_tokens = 256;
  InferenceServer server(*lm_, *tokenizer_, options);

  const std::string prompt = "alpha beta gamma";
  std::vector<int> reference = Reference(prompt, 8);

  Response first = server.Run({prompt, 8});
  ASSERT_TRUE(first.status.ok()) << first.status;
  EXPECT_EQ(first.tokens, reference);
  EXPECT_EQ(first.text, tokenizer_->Decode(reference).value());
  EXPECT_FALSE(first.prefix_hit);
  EXPECT_FALSE(first.degraded);

  Response second = server.Run({prompt, 8});
  ASSERT_TRUE(second.status.ok()) << second.status;
  EXPECT_TRUE(second.prefix_hit);
  EXPECT_EQ(second.tokens, reference);
}

TEST_F(ServeFixture, TransientDecodeFaultIsRetriedBitExact) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  std::string prompt = PromptWithLongReference(2, 8);
  std::vector<int> reference = Reference(prompt, 8);

  ASSERT_TRUE(faults.Configure("serve/decode_step=fail@1").ok());
  ServeOptions options;
  options.max_batch_rows = 1;
  options.retry = {.max_attempts = 3, .base_delay_ms = 1};
  InferenceServer server(*lm_, *tokenizer_, options);

  Response response = server.Run({prompt, 8});
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.tokens, reference);
  EXPECT_GE(response.retries, 1);
  EXPECT_FALSE(response.degraded);
}

TEST_F(ServeFixture, PoisonedSessionDegradesToCachelessBitExact) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  std::string prompt = PromptWithLongReference(2, 8);
  std::vector<int> reference = Reference(prompt, 8);

  ASSERT_TRUE(faults.Configure("serve/decode_step=fail@1+").ok());
  ServeOptions options;
  options.max_batch_rows = 1;
  options.retry = {.max_attempts = 2, .base_delay_ms = 1};
  InferenceServer server(*lm_, *tokenizer_, options);

  Response response = server.Run({prompt, 8});
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.prefix_hit);
  EXPECT_EQ(response.tokens, reference);
  // The poisoned session must not have been returned to the cache.
  EXPECT_EQ(server.cached_tokens(), size_t{0});
}

TEST_F(ServeFixture, PermanentPrefillFaultDegradesBitExact) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  const std::string prompt = "iota kappa lambda";
  std::vector<int> reference = Reference(prompt, 6);

  ASSERT_TRUE(faults.Configure("serve/prefill=fail@1+").ok());
  ServeOptions options;
  options.max_batch_rows = 1;
  options.retry = {.max_attempts = 2, .base_delay_ms = 1};
  InferenceServer server(*lm_, *tokenizer_, options);

  Response response = server.Run({prompt, 6});
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.tokens, reference);
}

TEST_F(ServeFixture, ShedsWithResourceExhaustedWhenQueueIsFull) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  std::string prompt = PromptWithLongReference(2, 4);
  // Stall the single worker inside a retry backoff (one transient decode
  // fault, 500 ms delay) so the flood below races only against a sleeping
  // thread, not against real decode speed.
  ASSERT_TRUE(faults.Configure("serve/decode_step=fail@1").ok());
  ServeOptions options;
  options.max_batch_rows = 1;
  options.queue_capacity = 2;
  options.retry = {
      .max_attempts = 2, .base_delay_ms = 500, .multiplier = 1.0};
  InferenceServer server(*lm_, *tokenizer_, options);

  std::future<Response> stalled = server.Submit({prompt, 4});
  while (server.queue_depth() > 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }

  std::vector<std::future<Response>> flood;
  for (int i = 0; i < 6; ++i) flood.push_back(server.Submit({prompt, 4}));
  int shed = 0;
  int served = 0;
  for (std::future<Response>& f : flood) {
    Response r = f.get();
    if (r.status.code() == util::StatusCode::kResourceExhausted) {
      ++shed;
    } else if (r.status.ok()) {
      ++served;
    }
  }
  // Queue capacity 2: of the 6 requests flooded while the worker slept,
  // exactly 4 must shed — and shedding resolves immediately, it never
  // waits behind the stalled worker.
  EXPECT_EQ(shed, 4);
  EXPECT_EQ(served, 2);
  Response first = stalled.get();
  EXPECT_TRUE(first.status.ok()) << first.status;
  EXPECT_GE(first.retries, 1);
}

TEST_F(ServeFixture, DeadlineExpiredInQueueReturnsDeadlineExceeded) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  std::string prompt = PromptWithLongReference(2, 4);
  ASSERT_TRUE(faults.Configure("serve/decode_step=fail@1").ok());
  ServeOptions options;
  options.max_batch_rows = 1;
  options.retry = {
      .max_attempts = 2, .base_delay_ms = 300, .multiplier = 1.0};
  InferenceServer server(*lm_, *tokenizer_, options);

  std::future<Response> stalled = server.Submit({prompt, 4});
  while (server.queue_depth() > 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  Request tight;
  tight.prompt = prompt;
  tight.max_new_tokens = 4;
  tight.deadline = milliseconds(5);
  Response late = server.Run(std::move(tight));
  EXPECT_EQ(late.status.code(), util::StatusCode::kDeadlineExceeded)
      << late.status;
  EXPECT_TRUE(stalled.get().status.ok());
}

TEST_F(ServeFixture, EvictionKeepsCachedTokensUnderBudget) {
  obs::Registry::Get().ResetAll();
  const std::string prompt_a = "alpha beta gamma delta";
  const std::string prompt_b = "iota kappa lambda mu";
  size_t len_a = tokenizer_->EncodeWithSpecials(prompt_a, false).size();

  ServeOptions options;
  options.max_batch_rows = 1;
  options.kv_budget_tokens = len_a;  // room for exactly one prompt
  InferenceServer server(*lm_, *tokenizer_, options);

  ASSERT_TRUE(server.Run({prompt_a, 4}).status.ok());
  EXPECT_EQ(server.cached_tokens(), len_a);
  ASSERT_TRUE(server.Run({prompt_b, 4}).status.ok());  // evicts A
  EXPECT_LE(server.cached_tokens(), options.kv_budget_tokens);

  Response again = server.Run({prompt_a, 4});
  ASSERT_TRUE(again.status.ok());
  EXPECT_FALSE(again.prefix_hit);  // A was evicted, so this re-prefilled
  EXPECT_GE(obs::Registry::Get()
                .GetCounter("serve/evictions")
                ->Value(),
            uint64_t{1});
  EXPECT_LE(server.cached_tokens(), options.kv_budget_tokens);
}

TEST_F(ServeFixture, ZeroBudgetDisablesCachingButStillServes) {
  ServeOptions options;
  options.max_batch_rows = 1;
  options.kv_budget_tokens = 0;
  InferenceServer server(*lm_, *tokenizer_, options);
  const std::string prompt = "rho sigma tau";
  std::vector<int> reference = Reference(prompt, 6);
  for (int i = 0; i < 2; ++i) {
    Response response = server.Run({prompt, 6});
    ASSERT_TRUE(response.status.ok());
    EXPECT_FALSE(response.prefix_hit);
    EXPECT_EQ(response.tokens, reference);
  }
  EXPECT_EQ(server.cached_tokens(), size_t{0});
}

TEST_F(ServeFixture, OverlongPromptIsRejectedWithoutKillingTheServer) {
  ServeOptions options;
  options.max_batch_rows = 1;
  options.retry = {.max_attempts = 1};  // the prefill fault below is final
  InferenceServer server(*lm_, *tokenizer_, options);
  std::string overlong;
  for (int i = 0; i < 40; ++i) overlong += "alpha ";  // > max_seq_len ids
  Response bad = server.Run({overlong, 4});
  EXPECT_EQ(bad.status.code(), util::StatusCode::kInvalidArgument)
      << bad.status;
  Response good = server.Run({"alpha beta", 4});
  EXPECT_TRUE(good.status.ok()) << good.status;

  // Prompt-length boundaries: `ids` ids (<bos> plus repeated `word`).
  const size_t max_seq = lm_->config().max_seq_len;
  auto prompt_of = [&](size_t ids, const std::string& word) {
    std::string prompt;
    for (size_t i = 1; i < ids; ++i) prompt += word + " ";
    EXPECT_EQ(tokenizer_->EncodeWithSpecials(prompt, false).size(), ids);
    return prompt;
  };
  // Exactly max_seq_len ids leave no room to decode.
  Response full = server.Run({prompt_of(max_seq, "alpha"), 4});
  EXPECT_EQ(full.status.code(), util::StatusCode::kInvalidArgument)
      << full.status;
  // One id fewer decodes exactly one position.
  const std::string longest = prompt_of(max_seq - 1, "alpha");
  Response last = server.Run({longest, 4});
  ASSERT_TRUE(last.status.ok()) << last.status;
  EXPECT_LE(last.tokens.size(), size_t{1});
  EXPECT_EQ(last.tokens, Reference(longest, 4));
  // The empty prompt is <bos> alone.
  Response empty = server.Run({"", 4});
  ASSERT_TRUE(empty.status.ok()) << empty.status;
  EXPECT_EQ(empty.tokens, Reference("", 4));
  // A longest prompt whose prefill fails degrades and still decodes its
  // one position bit-exactly (a fresh word, so no cached prefix skips the
  // prefill).
  const std::string degraded_longest = prompt_of(max_seq - 1, "beta");
  ASSERT_TRUE(
      util::FaultRegistry::Get().Configure("serve/prefill=fail@1").ok());
  Response degraded = server.Run({degraded_longest, 4});
  ASSERT_TRUE(degraded.status.ok()) << degraded.status;
  EXPECT_TRUE(degraded.degraded);
  EXPECT_LE(degraded.tokens.size(), size_t{1});
  EXPECT_EQ(degraded.tokens, Reference(degraded_longest, 4));
}

TEST_F(ServeFixture, ShutdownCancelsQueuedAndRejectsNewRequests) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  std::string prompt = PromptWithLongReference(2, 8);
  ASSERT_TRUE(faults.Configure("serve/decode_step=fail@1").ok());
  auto server = std::make_unique<InferenceServer>(
      *lm_, *tokenizer_,
      ServeOptions{.max_batch_rows = 1,
                   .retry = {.max_attempts = 2,
                             .base_delay_ms = 300,
                             .multiplier = 1.0}});

  std::future<Response> in_flight = server->Submit({prompt, 8});
  while (server->queue_depth() > 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  std::future<Response> queued = server->Submit({prompt, 8});
  server->Shutdown();

  Response cancelled = queued.get();
  EXPECT_EQ(cancelled.status.code(), util::StatusCode::kUnavailable)
      << cancelled.status;
  // The in-flight request either finished or noticed cancellation at a
  // token boundary — both are clean exits; what matters is that Shutdown
  // never wedged and the promise resolved.
  Response first = in_flight.get();
  EXPECT_TRUE(first.status.ok() ||
              first.status.code() == util::StatusCode::kCancelled)
      << first.status;

  Response rejected = server->Run({prompt, 4});
  EXPECT_EQ(rejected.status.code(), util::StatusCode::kUnavailable);
}

// A full batch of distinct prompts decoded concurrently by the scheduler:
// every response must match its own single-threaded GreedyDecode.
TEST_F(ServeFixture, ConcurrentBatchServesEveryRequestBitExact) {
  ServeOptions options;
  options.max_batch_rows = 4;
  options.queue_capacity = 32;
  options.kv_budget_tokens = 256;
  InferenceServer server(*lm_, *tokenizer_, options);

  const std::vector<std::string> prompts = {
      "alpha beta gamma", "iota kappa",    "sigma tau alpha",
      "delta epsilon",    "mu nu xi pi",   "theta iota omicron",
      "beta delta zeta",  "rho sigma"};
  std::vector<std::future<Response>> futures;
  futures.reserve(prompts.size());
  for (const std::string& prompt : prompts) {
    futures.push_back(server.Submit({prompt, 8}));
  }
  for (size_t i = 0; i < prompts.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << prompts[i] << ": "
                                      << response.status;
    EXPECT_EQ(response.tokens, Reference(prompts[i], 8)) << prompts[i];
    EXPECT_FALSE(response.degraded) << prompts[i];
  }
}

// The histogram behind the reported latency quantiles agrees with the
// responses themselves: over a concurrent batch, serve/e2e_ok_seconds
// counts exactly the ok responses, and its p50 and p99 land in the same
// or an adjacent exponential bucket as the nearest-rank percentiles of the
// responses' total_seconds (adjacency absorbs in-bucket interpolation).
TEST_F(ServeFixture, E2eQuantilesMatchResponseLatencies) {
  obs::Registry& registry = obs::Registry::Get();
  ServeOptions options;
  options.max_batch_rows = 4;
  options.queue_capacity = 64;
  InferenceServer server(*lm_, *tokenizer_, options);

  const std::vector<std::string> prompts = {
      "alpha beta gamma", "iota kappa",    "sigma tau alpha",
      "delta epsilon",    "mu nu xi pi",   "theta iota omicron",
      "beta delta zeta",  "rho sigma"};
  const obs::Registry::Snapshot before = registry.TakeSnapshot();
  std::vector<std::future<Response>> futures;
  for (size_t k = 0; k < 48; ++k) {
    futures.push_back(server.Submit({prompts[k % prompts.size()], 6}));
  }
  std::vector<double> latencies;
  for (std::future<Response>& future : futures) {
    Response response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status;
    if (response.status.ok()) latencies.push_back(response.total_seconds);
  }
  server.Shutdown();
  const obs::HistogramStats e2e = obs::Registry::HistogramDelta(
      before, registry.TakeSnapshot(), "serve/e2e_ok_seconds");

  ASSERT_FALSE(latencies.empty());
  EXPECT_EQ(e2e.count, latencies.size());
  std::sort(latencies.begin(), latencies.end());
  // Nearest rank k = max(1, ceil(q * n)), the histogram's own convention.
  auto nearest_rank = [&](double q) {
    size_t n = latencies.size();
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    return latencies[std::min(std::max<size_t>(rank, 1), n) - 1];
  };
  auto bucket_gap = [](double a, double b) {
    size_t x = obs::Histogram::BucketIndexFor(a);
    size_t y = obs::Histogram::BucketIndexFor(b);
    return x > y ? x - y : y - x;
  };
  EXPECT_LE(bucket_gap(e2e.p50, nearest_rank(0.50)), size_t{1})
      << "histogram p50 " << e2e.p50 << " vs responses "
      << nearest_rank(0.50);
  EXPECT_LE(bucket_gap(e2e.p99, nearest_rank(0.99)), size_t{1})
      << "histogram p99 " << e2e.p99 << " vs responses "
      << nearest_rank(0.99);
}

// A step-token budget too small to co-admit two prompts forces deferrals;
// deferred requests must still be served, bit-exact, in FIFO order.
TEST_F(ServeFixture, TightTokenBudgetDefersButServesAll) {
  ServeOptions options;
  options.max_batch_rows = 4;
  options.max_batch_tokens = 6;  // < two prompt lengths combined
  options.queue_capacity = 32;
  options.kv_budget_tokens = 0;  // force every admission through prefill
  InferenceServer server(*lm_, *tokenizer_, options);

  const std::vector<std::string> prompts = {
      "alpha beta gamma",   "iota kappa lambda", "sigma tau alpha",
      "delta epsilon zeta", "mu nu xi pi",       "beta delta zeta"};
  // References first: GreedyDecode prefills through the same engine and
  // would count in the prefill-step delta below.
  std::vector<std::vector<int>> references;
  for (const std::string& prompt : prompts) {
    ASSERT_GE(tokenizer_->EncodeWithSpecials(prompt, false).size(),
              size_t{4})
        << prompt;
    references.push_back(Reference(prompt, 6));
  }
  obs::Histogram* prefill_steps =
      obs::Registry::Get().GetHistogram("engine/prefill_seconds");
  const uint64_t prefill_steps_before = prefill_steps->Count();
  std::vector<std::future<Response>> futures;
  for (const std::string& prompt : prompts) {
    futures.push_back(server.Submit({prompt, 6}));
  }
  for (size_t i = 0; i < prompts.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << prompts[i] << ": "
                                      << response.status;
    EXPECT_EQ(response.tokens, references[i]) << prompts[i];
  }
  // Every prompt is >= 4 ids, so no two fit one step's budget of 6: each
  // prefill runs in a step of its own.
  EXPECT_EQ(prefill_steps->Count() - prefill_steps_before,
            uint64_t{prompts.size()});
}

// Graceful drain: with a drain deadline configured and a queue that fits
// the budget, Shutdown() must deliver every admitted AND queued request —
// zero cancellations.
TEST_F(ServeFixture, GracefulDrainCompletesQueuedWorkWithZeroCancellations) {
  obs::Registry::Get().ResetAll();
  ServeOptions options;
  options.max_batch_rows = 1;  // forces the later submissions to queue
  options.queue_capacity = 16;
  options.drain_deadline = milliseconds(10000);
  InferenceServer server(*lm_, *tokenizer_, options);

  const std::vector<std::string> prompts = {
      "alpha beta gamma", "iota kappa", "sigma tau alpha", "delta epsilon"};
  std::vector<std::future<Response>> futures;
  for (const std::string& prompt : prompts) {
    futures.push_back(server.Submit({prompt, 6}));
  }
  server.Shutdown();  // blocks until the drain finishes

  for (size_t i = 0; i < prompts.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << prompts[i] << ": "
                                      << response.status;
    EXPECT_EQ(response.tokens, Reference(prompts[i], 6)) << prompts[i];
  }
  obs::Registry& registry = obs::Registry::Get();
  EXPECT_EQ(registry.GetCounter("serve/cancelled")->Value(), uint64_t{0});
  EXPECT_EQ(registry.GetCounter("serve/completed")->Value(),
            uint64_t{prompts.size()});

  // Admission is closed from the first instant of the drain.
  Response rejected = server.Run({prompts[0], 4});
  EXPECT_EQ(rejected.status.code(), util::StatusCode::kUnavailable);
}

// The drain deadline is a hard budget: work that outlives it is cancelled,
// and Shutdown() still returns promptly.
TEST_F(ServeFixture, DrainDeadlineExceededCancelsLeftovers) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  std::string prompt = PromptWithLongReference(2, 8);
  // Stall the scheduler inside a 300 ms retry backoff so the 20 ms drain
  // budget expires while work is still outstanding.
  ASSERT_TRUE(faults.Configure("serve/decode_step=fail@1").ok());
  ServeOptions options;
  options.max_batch_rows = 1;
  options.drain_deadline = milliseconds(20);
  options.retry = {
      .max_attempts = 2, .base_delay_ms = 300, .multiplier = 1.0};
  InferenceServer server(*lm_, *tokenizer_, options);

  std::future<Response> stalled = server.Submit({prompt, 8});
  while (server.queue_depth() > 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  std::future<Response> queued = server.Submit({prompt, 8});
  server.Shutdown();

  Response first = stalled.get();
  EXPECT_EQ(first.status.code(), util::StatusCode::kCancelled)
      << first.status;
  Response second = queued.get();
  EXPECT_EQ(second.status.code(), util::StatusCode::kUnavailable)
      << second.status;
}

// A hot-swap through a live server: responses pin the version active at
// admission, stay bit-exact with the sequential decoder under that
// version's hook, and base-model prefixes survive the swap round-trip.
TEST_F(ServeFixture, SwapAdaptersServesPinnedVersionBitExact) {
  core::AdapterStackOptions stack_options;
  stack_options.first_layer = 0;
  stack_options.last_layer = 1;
  stack_options.bottleneck = 4;
  stack_options.use_infuser = false;
  core::KnowledgeAdapterStack stack(lm_->config().dim,
                                    lm_->config().num_layers, stack_options);
  util::Rng rng(17);
  for (tensor::Tensor& t : stack.AdapterParameters()) {
    for (float& v : t.impl()->data) {
      v = static_cast<float>(rng.Normal(0.0, 0.1));
    }
  }
  auto exported = stack.ExportPositionWise();
  ASSERT_TRUE(exported.ok()) << exported.status();

  std::string dir = ::testing::TempDir() + "/serve_swap_registry";
  std::filesystem::remove_all(dir);
  AdapterRegistry registry(dir);
  auto version = registry.Publish(std::move(exported).value());
  ASSERT_TRUE(version.ok()) << version.status();

  ServeOptions options;
  options.max_batch_rows = 2;
  options.kv_budget_tokens = 256;
  InferenceServer server(*lm_, *tokenizer_, options);
  const std::string prompt = "alpha beta gamma";
  const std::vector<int> ids =
      tokenizer_->EncodeWithSpecials(prompt, false);

  // Base model before any swap.
  Response base = server.Run({prompt, 8});
  ASSERT_TRUE(base.status.ok()) << base.status;
  EXPECT_EQ(base.adapter_sequence, uint64_t{0});
  EXPECT_EQ(base.tokens, Reference(prompt, 8));

  // Swap the adapter in: answers must match the hooked sequential decoder
  // and must NOT reuse the base-generation prefix.
  server.SwapAdapters(version.value());
  EXPECT_EQ(server.active_adapter_sequence(), version.value().sequence);
  model::PositionWiseAdapterHook hook(version.value().adapter.get());
  std::vector<int> adapted_reference =
      model::GreedyDecode(*lm_, ids, 8, hook.Options());
  Response adapted = server.Run({prompt, 8});
  ASSERT_TRUE(adapted.status.ok()) << adapted.status;
  EXPECT_EQ(adapted.adapter_sequence, version.value().sequence);
  EXPECT_FALSE(adapted.prefix_hit);
  EXPECT_EQ(adapted.tokens, adapted_reference);

  // Swap back to the base model: the generation-0 prefix parked by the
  // first request survived the swap cycle and is reused, bit-exact.
  server.SwapAdapters(AdapterVersion{});
  EXPECT_EQ(server.active_adapter_sequence(), uint64_t{0});
  Response back = server.Run({prompt, 8});
  ASSERT_TRUE(back.status.ok()) << back.status;
  EXPECT_EQ(back.adapter_sequence, uint64_t{0});
  EXPECT_TRUE(back.prefix_hit);
  EXPECT_EQ(back.tokens, Reference(prompt, 8));
}

/// Adapter adapting `layer` alone, with small nonzero weights of width
/// `dim`.
std::shared_ptr<const model::PositionWiseAdapter> OneLayerAdapter(size_t dim,
                                                                  int layer) {
  util::Rng rng(static_cast<uint64_t>(dim) * 31 + 7);
  std::vector<model::PositionWiseAdapter::LayerWeights> layers(1);
  layers[0].layer = layer;
  layers[0].down_weight = tensor::Tensor::Randn({4, dim}, &rng, 0.1f);
  layers[0].down_bias = tensor::Tensor::Randn({4}, &rng, 0.1f);
  layers[0].up_weight = tensor::Tensor::Randn({dim, 4}, &rng, 0.1f);
  layers[0].up_bias = tensor::Tensor::Randn({dim}, &rng, 0.1f);
  return std::make_shared<const model::PositionWiseAdapter>(
      dim, 4, model::AdapterAttachment::kFfn, std::move(layers));
}

// A permanent decode fault on one row of a full batch restarts that row
// alone: it re-prefills in a fresh slot while the other rows keep
// decoding, and every stream, the degraded one included, stays bit-exact.
TEST_F(ServeFixture, DecodeFaultDegradesOneRowInBatchBitExact) {
  ExpectOneRowDegradesInBatchBitExact(AdapterVersion{});
}

// The restarted row re-prefills under the adapter version it pinned at
// admission, not under the base model.
TEST_F(ServeFixture, DegradedRowKeepsItsPinnedAdapterBitExact) {
  ExpectOneRowDegradesInBatchBitExact(
      AdapterVersion{1, "", OneLayerAdapter(lm_->config().dim, 0)});
}

// Rows that degrade during a graceful drain still finish inside it: with
// every decode step failing for good, each request restarts once in the
// batch and completes before Shutdown() returns, with zero cancellations.
TEST_F(ServeFixture, DrainDeliversRowsThatDegradeDuringIt) {
  const size_t max_new = 6;
  std::vector<std::string> prompts = PromptsWithLongReference(5, 2, max_new);
  ASSERT_EQ(prompts.size(), size_t{5});
  ASSERT_TRUE(util::FaultRegistry::Get()
                  .Configure("serve/decode_step=fail@1+")
                  .ok());
  obs::Counter* cancelled =
      obs::Registry::Get().GetCounter("serve/cancelled");
  const uint64_t cancelled_before = cancelled->Value();
  ServeOptions options;
  options.max_batch_rows = 2;  // more requests than rows: some queue
  options.drain_deadline = milliseconds(10000);
  options.retry = {.max_attempts = 1};
  InferenceServer server(*lm_, *tokenizer_, options);

  std::vector<std::future<Response>> futures;
  for (const std::string& prompt : prompts) {
    futures.push_back(server.Submit({prompt, max_new}));
  }
  server.Shutdown();

  for (size_t i = 0; i < prompts.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << prompts[i] << ": "
                                      << response.status;
    EXPECT_TRUE(response.degraded) << prompts[i];
    EXPECT_EQ(response.tokens, Reference(prompts[i], max_new)) << prompts[i];
  }
  EXPECT_EQ(cancelled->Value() - cancelled_before, uint64_t{0});
}

// An adapter that does not fit the model is refused at the swap: the
// active version stays, and requests keep being served under it instead
// of aborting the server at their first forward.
TEST_F(ServeFixture, SwapAdaptersRejectsAdapterThatDoesNotFitModel) {
  ServeOptions options;
  options.max_batch_rows = 2;
  options.kv_budget_tokens = 256;
  InferenceServer server(*lm_, *tokenizer_, options);
  const size_t dim = lm_->config().dim;
  const int layers = static_cast<int>(lm_->config().num_layers);
  AdapterVersion fits{1, "", OneLayerAdapter(dim, layers - 1)};
  ASSERT_TRUE(server.SwapAdapters(fits).ok());

  const std::vector<AdapterVersion> misfits = {
      {2, "", OneLayerAdapter(dim + 2, 0)},
      {3, "", OneLayerAdapter(dim, layers)},
      {4, "", OneLayerAdapter(dim, std::numeric_limits<int>::max())},
  };
  for (const AdapterVersion& misfit : misfits) {
    util::Status status = server.SwapAdapters(misfit);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
        << "version " << misfit.sequence << ": " << status;
    EXPECT_EQ(server.active_adapter_sequence(), uint64_t{1});
  }

  const std::string prompt = "alpha beta gamma";
  model::PositionWiseAdapterHook hook(fits.adapter.get());
  Response served = server.Run({prompt, 8});
  ASSERT_TRUE(served.status.ok()) << served.status;
  EXPECT_EQ(served.adapter_sequence, uint64_t{1});
  EXPECT_EQ(served.tokens,
            model::GreedyDecode(*lm_,
                                tokenizer_->EncodeWithSpecials(prompt, false),
                                8, hook.Options()));
}

TEST(PrefixCacheUnit, LookupSharesWithoutRemoving) {
  PrefixCache cache(/*budget_tokens=*/16);
  auto entry = std::make_shared<PrefixCache::Entry>();
  entry->prompt = {1, 5, 6};
  EXPECT_EQ(cache.Insert(entry), size_t{0});
  EXPECT_EQ(cache.entries(), size_t{1});
  EXPECT_EQ(cache.cached_tokens(), size_t{3});

  EXPECT_EQ(cache.Lookup({9, 9}), nullptr);
  std::shared_ptr<const PrefixCache::Entry> row_a = cache.Lookup({1, 5, 6});
  std::shared_ptr<const PrefixCache::Entry> row_b = cache.Lookup({1, 5, 6});
  ASSERT_NE(row_a, nullptr);
  EXPECT_EQ(row_a.get(), row_b.get());  // one shared copy, not two
  // The entry stays resident and is counted once however many rows hold it.
  EXPECT_EQ(cache.entries(), size_t{1});
  EXPECT_EQ(cache.cached_tokens(), size_t{3});
}

TEST(PrefixCacheUnit, EvictsLeastRecentlyUsedUnderBudget) {
  PrefixCache cache(/*budget_tokens=*/10);
  auto make = [](std::vector<int> prompt) {
    auto entry = std::make_shared<PrefixCache::Entry>();
    entry->prompt = std::move(prompt);
    return entry;
  };
  cache.Insert(make({1, 2, 3, 4}));
  cache.Insert(make({5, 6, 7, 8}));
  // Touch {1,2,3,4} so {5,6,7,8} becomes the LRU victim.
  cache.Lookup({1, 2, 3, 4});
  EXPECT_EQ(cache.Insert(make({9, 10, 11, 12})), size_t{1});
  EXPECT_LE(cache.cached_tokens(), size_t{10});
  EXPECT_EQ(cache.Lookup({5, 6, 7, 8}), nullptr);
  EXPECT_NE(cache.Lookup({1, 2, 3, 4}), nullptr);
}

TEST(PrefixCacheUnit, OversizedEntryIsDroppedImmediately) {
  PrefixCache cache(/*budget_tokens=*/3);
  auto entry = std::make_shared<PrefixCache::Entry>();
  entry->prompt = {1, 2, 3, 4, 5};
  EXPECT_EQ(cache.Insert(std::move(entry)), size_t{1});
  EXPECT_EQ(cache.entries(), size_t{0});
  EXPECT_EQ(cache.cached_tokens(), size_t{0});
}

// Regression for batched prefix sharing: when two in-flight batch rows hold
// the same cached prefix, the pool must count its tokens exactly once,
// a sharer's re-publication at retirement must not count as an eviction,
// and evicting the entry while sharers are outstanding must keep both the
// accounting and the sharers' data intact.
TEST(PrefixCacheUnit, SharedPrefixEvictionAccountingStaysExact) {
  PrefixCache cache(/*budget_tokens=*/8);
  auto make = [](std::vector<int> prompt) {
    auto entry = std::make_shared<PrefixCache::Entry>();
    entry->prompt = std::move(prompt);
    return entry;
  };
  ASSERT_EQ(cache.Insert(make({1, 2, 3, 4, 5})), size_t{0});

  // Two batch rows restore from the same snapshot concurrently.
  std::shared_ptr<const PrefixCache::Entry> row_a =
      cache.Lookup({1, 2, 3, 4, 5});
  std::shared_ptr<const PrefixCache::Entry> row_b =
      cache.Lookup({1, 2, 3, 4, 5});
  ASSERT_NE(row_a, nullptr);
  ASSERT_NE(row_b, nullptr);
  EXPECT_EQ(cache.cached_tokens(), size_t{5});  // counted once, not twice

  // Row A retires and re-publishes its handle: an LRU refresh, not a
  // second copy — no eviction, no token double-count.
  EXPECT_EQ(cache.Insert(row_a), size_t{0});
  EXPECT_EQ(cache.cached_tokens(), size_t{5});
  EXPECT_EQ(cache.entries(), size_t{1});

  // A 6-token prefix lands while row B is still mid-decode: the shared
  // entry is evicted (5 + 6 > 8) — exactly one eviction — but row B's
  // handle keeps the snapshot alive.
  EXPECT_EQ(cache.Insert(make({10, 11, 12, 13, 14, 15})), size_t{1});
  EXPECT_EQ(cache.cached_tokens(), size_t{6});
  EXPECT_EQ(cache.Lookup({1, 2, 3, 4, 5}), nullptr);
  ASSERT_NE(row_b, nullptr);
  EXPECT_EQ(row_b->prompt.size(), size_t{5});

  // Row B retires after the eviction: its re-publication is a normal
  // insert that displaces the newer entry (5 + 6 > 8 again) — the counts
  // stay exact through the full share → evict → re-publish cycle.
  EXPECT_EQ(cache.Insert(row_b), size_t{1});
  EXPECT_EQ(cache.cached_tokens(), size_t{5});
  EXPECT_EQ(cache.entries(), size_t{1});
  EXPECT_NE(cache.Lookup({1, 2, 3, 4, 5}), nullptr);
}

TEST(PrefixCacheUnit, ClearReportsExactDropCountAndSparesHandles) {
  obs::Registry::Get().ResetAll();
  PrefixCache cache(/*budget_tokens=*/16);
  auto make = [](std::vector<int> prompt) {
    auto entry = std::make_shared<PrefixCache::Entry>();
    entry->prompt = std::move(prompt);
    return entry;
  };
  cache.Insert(make({1, 2, 3}));
  cache.Insert(make({4, 5, 6, 7}));
  std::shared_ptr<const PrefixCache::Entry> held = cache.Lookup({1, 2, 3});
  ASSERT_NE(held, nullptr);

  EXPECT_EQ(cache.Clear(), size_t{2});
  EXPECT_EQ(cache.entries(), size_t{0});
  EXPECT_EQ(cache.cached_tokens(), size_t{0});
  EXPECT_EQ(obs::Registry::Get().GetCounter("serve/evictions")->Value(),
            uint64_t{2});
  // A mid-flight handle keeps its snapshot through the Clear().
  EXPECT_EQ(held->prompt.size(), size_t{3});

  // Clearing an empty cache is a no-op with an exact (zero) count.
  EXPECT_EQ(cache.Clear(), size_t{0});
  EXPECT_EQ(obs::Registry::Get().GetCounter("serve/evictions")->Value(),
            uint64_t{2});
}

// Generation tags (DESIGN.md §12): invalidation drops exactly the replaced
// generation's entries, spares generation 0 (base model), keeps mid-flight
// handles alive — even two rows sharing one entry — and a late insert from
// a stale generation parks nothing without perturbing the accounting.
TEST(PrefixCacheUnit, GenerationInvalidationIsExactAndSparesBase) {
  obs::Registry::Get().ResetAll();
  PrefixCache cache(/*budget_tokens=*/32);
  auto make = [](std::vector<int> prompt, uint64_t generation) {
    auto entry = std::make_shared<PrefixCache::Entry>();
    entry->prompt = std::move(prompt);
    entry->generation = generation;
    return entry;
  };
  // One base-model prefix, then two prefixes under adapter generation 1.
  ASSERT_EQ(cache.Insert(make({1, 2, 3}, 0)), size_t{0});
  cache.SetActiveGeneration(1);
  ASSERT_EQ(cache.Insert(make({1, 2, 3}, 1)), size_t{0});
  ASSERT_EQ(cache.Insert(make({4, 5, 6, 7}, 1)), size_t{0});
  EXPECT_EQ(cache.entries(), size_t{3});
  EXPECT_EQ(cache.cached_tokens(), size_t{10});

  // The same prompt resolves per generation — an adapted prefill can
  // never seed a base request and vice versa.
  ASSERT_NE(cache.Lookup({1, 2, 3}, 0), nullptr);
  ASSERT_NE(cache.Lookup({1, 2, 3}, 1), nullptr);
  EXPECT_NE(cache.Lookup({1, 2, 3}, 0).get(),
            cache.Lookup({1, 2, 3}, 1).get());

  // Two in-flight rows share one generation-1 entry mid-swap.
  std::shared_ptr<const PrefixCache::Entry> row_a = cache.Lookup({1, 2, 3}, 1);
  std::shared_ptr<const PrefixCache::Entry> row_b = cache.Lookup({1, 2, 3}, 1);
  ASSERT_EQ(row_a.get(), row_b.get());

  // Swap to generation 2: exactly the two generation-1 entries drop.
  cache.SetActiveGeneration(2);
  EXPECT_EQ(cache.InvalidateGeneration(1), size_t{2});
  EXPECT_EQ(cache.entries(), size_t{1});
  EXPECT_EQ(cache.cached_tokens(), size_t{3});
  EXPECT_EQ(obs::Registry::Get().GetCounter("serve/evictions")->Value(),
            uint64_t{2});
  EXPECT_NE(cache.Lookup({1, 2, 3}, 0), nullptr);   // base survives
  EXPECT_EQ(cache.Lookup({1, 2, 3}, 1), nullptr);
  EXPECT_EQ(cache.Lookup({4, 5, 6, 7}, 1), nullptr);
  EXPECT_EQ(row_a->prompt.size(), size_t{3});       // handles intact

  // Row A retires after the swap: its stale-generation re-publication is
  // dropped — not parked, not counted as an eviction.
  EXPECT_EQ(cache.Insert(row_a), size_t{0});
  EXPECT_EQ(cache.entries(), size_t{1});
  EXPECT_EQ(cache.cached_tokens(), size_t{3});
  EXPECT_EQ(obs::Registry::Get().GetCounter("serve/evictions")->Value(),
            uint64_t{2});

  // Invalidating a generation with no entries reports exactly zero.
  EXPECT_EQ(cache.InvalidateGeneration(1), size_t{0});
}

// ---- Overload control (DESIGN.md §14) --------------------------------

TEST(ValidateServeOptionsTest, AcceptsDefaultsRejectsEachBadKnob) {
  EXPECT_TRUE(ValidateServeOptions(ServeOptions{}).ok());

  auto expect_invalid = [](auto mutate, const char* what) {
    ServeOptions options;
    mutate(options);
    util::Status status = ValidateServeOptions(options);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
        << what << ": " << status;
  };
  expect_invalid([](ServeOptions& o) { o.max_batch_rows = 0; },
                 "max_batch_rows");
  expect_invalid([](ServeOptions& o) { o.max_batch_tokens = 0; },
                 "max_batch_tokens");
  expect_invalid([](ServeOptions& o) { o.queue_capacity = 0; },
                 "queue_capacity");
  expect_invalid(
      [](ServeOptions& o) { o.default_deadline = milliseconds(-1); },
      "default_deadline");
  expect_invalid([](ServeOptions& o) { o.drain_deadline = milliseconds(-1); },
                 "drain_deadline");
  expect_invalid([](ServeOptions& o) { o.retry.max_attempts = 0; },
                 "retry.max_attempts");
  expect_invalid([](ServeOptions& o) { o.retry.base_delay_ms = -1; },
                 "retry.base_delay_ms");
  expect_invalid([](ServeOptions& o) { o.retry.multiplier = 0.5; },
                 "retry.multiplier");
  expect_invalid([](ServeOptions& o) { o.admission.quantum = 0.0; },
                 "admission.quantum");
  expect_invalid(
      [](ServeOptions& o) { o.admission.default_policy.weight = 0; },
      "default weight");
  expect_invalid(
      [](ServeOptions& o) { o.admission.tenants["t"].rate_qps = -1.0; },
      "tenant rate_qps");
  expect_invalid(
      [](ServeOptions& o) {
        o.brownout.enter_occupancy = 0.2;
        o.brownout.exit_occupancy = 0.4;
      },
      "inverted brownout hysteresis");
  expect_invalid([](ServeOptions& o) { o.brownout.enter_ticks = 0; },
                 "brownout enter_ticks");
  expect_invalid([](ServeOptions& o) { o.brownout.clamp_max_new_tokens = 0; },
                 "brownout clamp");
  expect_invalid([](ServeOptions& o) { o.brownout.retry_after_s = 0.0; },
                 "brownout retry_after_s");
  expect_invalid([](ServeOptions& o) { o.feasibility_margin = -1.0; },
                 "feasibility_margin");
  expect_invalid(
      [](ServeOptions& o) { o.watchdog_interval = milliseconds(0); },
      "watchdog_interval");
  expect_invalid(
      [](ServeOptions& o) { o.watchdog_stall_timeout = milliseconds(-1); },
      "watchdog_stall_timeout");
}

TEST_F(ServeFixture, InvalidOptionsFailFastWithoutHanging) {
  ServeOptions options;
  options.max_batch_rows = 0;
  InferenceServer server(*lm_, *tokenizer_, options);
  EXPECT_EQ(server.init_status().code(),
            util::StatusCode::kInvalidArgument);
  // Submit on an invalid server resolves promptly with the validation
  // error — no scheduler thread exists to ever pick the request up.
  Response response = server.Run({"alpha beta", 4});
  EXPECT_EQ(response.status.code(), util::StatusCode::kInvalidArgument)
      << response.status;
  server.Shutdown();  // idempotent and safe with no threads started
}

TEST_F(ServeFixture, InfeasibleDeadlineIsShedWithRetryAfterHint) {
  ServeOptions options;
  options.feasibility_margin = 1.0;
  InferenceServer server(*lm_, *tokenizer_, options);
  // Pin absurdly slow observed rates: 10 prefill tok/s, 1 decode tok/s.
  // Any real request then provably overshoots a 50 ms deadline.
  server.SeedRateEstimate(10.0, 1.0);

  Request doomed;
  doomed.prompt = "alpha beta gamma delta";
  doomed.max_new_tokens = 4;
  doomed.deadline = milliseconds(50);
  Response response = server.Run(std::move(doomed));
  EXPECT_EQ(response.status.code(),
            util::StatusCode::kResourceExhausted)
      << response.status;
  EXPECT_NE(response.status.message().find("infeasible"),
            std::string::npos)
      << response.status;
  EXPECT_GT(response.retry_after_seconds, 0.0);
  EXPECT_GT(util::RetryAfterSeconds(response.status), 0.0);

  // A request without a deadline is never infeasible and still serves.
  EXPECT_TRUE(server.Run({"alpha beta", 2}).status.ok());
}

TEST_F(ServeFixture, BrownoutClampsBypassesCacheAndShedsLowTier) {
  std::string prompt = PromptWithLongReference(3, 8);
  ServeOptions options;
  // Escalate on every watchdog tick (any occupancy >= 0 counts) and never
  // de-escalate: deterministic max brownout without real overload.
  options.brownout.enter_occupancy = 0.0;
  options.brownout.exit_occupancy = -1.0;
  options.brownout.enter_ticks = 1;
  options.brownout.clamp_max_new_tokens = 2;
  options.watchdog_interval = milliseconds(5);
  options.watchdog_stall_timeout = milliseconds(0);
  InferenceServer server(*lm_, *tokenizer_, options);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.brownout_level() < kBrownoutMaxLevel &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(server.brownout_level(), kBrownoutMaxLevel);

  // Level 1 measure: max_new_tokens clamped to the brownout ceiling.
  Response clamped = server.Run({prompt, 8});
  ASSERT_TRUE(clamped.status.ok()) << clamped.status;
  EXPECT_LE(clamped.tokens.size(), size_t{2});
  // Level 2 measure: no prefix-cache snapshots are published.
  EXPECT_EQ(server.cached_tokens(), size_t{0});
  // Level 3 measure: the low tier is shed at admission with a hint.
  Request low;
  low.prompt = prompt;
  low.max_new_tokens = 4;
  low.priority = Priority::kLow;
  Response shed = server.Run(std::move(low));
  EXPECT_EQ(shed.status.code(), util::StatusCode::kResourceExhausted)
      << shed.status;
  EXPECT_GT(shed.retry_after_seconds, 0.0);
  // High tier still serves at max brownout.
  Request high;
  high.prompt = prompt;
  high.max_new_tokens = 2;
  high.priority = Priority::kHigh;
  EXPECT_TRUE(server.Run(std::move(high)).status.ok());
}

TEST_F(ServeFixture, WatchdogFailsStalledBatchAndRecovers) {
  obs::Registry::Get().ResetAll();
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  std::string prompt = PromptWithLongReference(2, 4);
  // Wedge the first decode step: the scheduler spins inside the stall
  // probe until the watchdog notices the frozen heartbeat and aborts it.
  ASSERT_TRUE(faults.Configure("serve/decode_stall=fail@1").ok());
  ServeOptions options;
  options.max_batch_rows = 2;
  options.watchdog_interval = milliseconds(10);
  options.watchdog_stall_timeout = milliseconds(150);
  InferenceServer server(*lm_, *tokenizer_, options);

  Response stalled = server.Run({prompt, 4});
  // The wedged batch is failed by the watchdog, not served.
  EXPECT_EQ(stalled.status.code(), util::StatusCode::kUnavailable)
      << stalled.status;

  // The scheduler restarted its session: later requests serve bit-exact.
  Response after = server.Run({prompt, 4});
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_EQ(after.tokens, Reference(prompt, 4));

  obs::Registry& registry = obs::Registry::Get();
  EXPECT_GE(registry.GetCounter("serve/watchdog_stalls")->Value(),
            uint64_t{1});
  EXPECT_GE(registry.GetCounter("serve/watchdog_recoveries")->Value(),
            uint64_t{1});
  server.Shutdown();
  // Conservation: every submitted request is classified exactly once.
  EXPECT_EQ(registry.GetCounter("serve/requests")->Value(),
            registry.GetCounter("serve/completed")->Value() +
                registry.GetCounter("serve/shed")->Value() +
                registry.GetCounter("serve/deadline_misses")->Value() +
                registry.GetCounter("serve/cancelled")->Value() +
                registry.GetCounter("serve/failures")->Value());
}

TEST_F(ServeFixture, WatchdogSamplesQueueDepth) {
  // The watchdog alone records one queue-depth sample per
  // watchdog_interval.
  obs::Histogram* samples =
      obs::Registry::Get().GetHistogram("serve/queue_depth_samples");
  const uint64_t before = samples->Count();
  ServeOptions options;
  options.watchdog_interval = milliseconds(5);
  InferenceServer server(*lm_, *tokenizer_, options);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (samples->Count() < before + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_GE(samples->Count(), before + 2);
  server.Shutdown();
}

TEST_F(ServeFixture, TenantCapShedsFlooderButServesOthers) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  std::string prompt = PromptWithLongReference(2, 4);
  // Same worker-stall trick as the queue-full test: park the scheduler in
  // a retry backoff so the flood below races a sleeping thread.
  ASSERT_TRUE(faults.Configure("serve/decode_step=fail@1").ok());
  ServeOptions options;
  options.max_batch_rows = 1;
  options.queue_capacity = 8;
  options.admission.tenants["flood"].queue_cap = 1;
  options.retry = {
      .max_attempts = 2, .base_delay_ms = 500, .multiplier = 1.0};
  InferenceServer server(*lm_, *tokenizer_, options);

  std::future<Response> stalled = server.Submit({prompt, 4});
  while (server.queue_depth() > 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }

  auto request_for = [&](const std::string& tenant) {
    Request request;
    request.prompt = prompt;
    request.max_new_tokens = 4;
    request.tenant_id = tenant;
    return request;
  };
  std::vector<std::future<Response>> flood;
  for (int i = 0; i < 3; ++i) {
    flood.push_back(server.Submit(request_for("flood")));
  }
  std::future<Response> polite = server.Submit(request_for("polite"));

  int flood_shed = 0;
  for (std::future<Response>& f : flood) {
    Response r = f.get();
    if (r.status.code() == util::StatusCode::kResourceExhausted) {
      ++flood_shed;
      // Targeted shedding: the offender's rejections carry backoff hints.
      EXPECT_GT(r.retry_after_seconds, 0.0);
    }
  }
  // Cap 1: of the 3 flooded requests, exactly 2 shed — while the polite
  // tenant rode through untouched.
  EXPECT_EQ(flood_shed, 2);
  EXPECT_TRUE(polite.get().status.ok());
  EXPECT_TRUE(stalled.get().status.ok());
}

TEST_F(ServeFixture, ServerRetryDeadlineSurvivesNoDeadlineRequests) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  // Permanent tokenize fault + huge backoff: without BoundDeadline, a
  // request carrying no deadline would erase the server-wide retry
  // deadline and sleep out the full 5 s backoff ladder.
  ASSERT_TRUE(faults.Configure("serve/tokenize=fail@1+").ok());
  ServeOptions options;
  options.retry.max_attempts = 5;
  options.retry.base_delay_ms = 5000;
  options.retry.multiplier = 1.0;
  options.retry.deadline =
      std::chrono::steady_clock::now() + milliseconds(300);
  InferenceServer server(*lm_, *tokenizer_, options);

  const auto start = std::chrono::steady_clock::now();
  Response response = server.Run({"alpha beta", 4});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(response.status.ok());
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << "retry loop ignored the server-wide retry deadline";
}

}  // namespace
}  // namespace infuserki::serve
