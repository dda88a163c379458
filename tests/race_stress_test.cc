#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <memory>

#include "model/batched_session.h"
#include "model/generation.h"
#include "model/transformer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/prefix_cache.h"
#include "serve/server.h"
#include "text/tokenizer.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/threadpool.h"

// Concurrency stress suite for the ThreadSanitizer gate (DESIGN.md §9).
// Run under `ctest --preset tsan`: each test hammers one of the shared
// mutable surfaces the parallel eval paths depend on — threadpool
// schedule/wait churn, parallel MCQ decode over a shared model, obs
// counter/gauge/histogram mutation, and the lazy singletons' first touch —
// with at least kThreads threads, so any unsynchronized access shows up as
// a TSan report rather than a corrupted paper metric. The assertions are
// deliberately coarse (counts, finiteness): the point is the interleaving,
// not the values.

namespace infuserki {
namespace {

constexpr size_t kThreads = 8;

// Force a real multi-worker global pool before its first touch: on
// single-core hosts hardware concurrency is 1 and the parallel loops would
// run inline, draining all interleaving out of this suite. An explicit
// INFUSERKI_NUM_THREADS in the environment still wins (overwrite=0).
const bool kPoolWidthForced = [] {
  setenv("INFUSERKI_NUM_THREADS", "8", /*overwrite=*/0);
  return true;
}();

// ---------------------------------------------------------------------------
// Lazy-singleton first touch. This test must run first in this binary (gtest
// runs tests in declaration order within a file) so the racing threads below
// really do contend on the magic-static initialization of every process-wide
// registry, not on an already-constructed object.
TEST(RaceStress, SingletonFirstTouchIsConcurrent) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) {
      }
      // First touch of each registry from kThreads threads at once.
      obs::Registry& registry = obs::Registry::Get();
      registry.GetCounter("race/first_touch")->Increment();
      obs::Tracer::Get().enabled();
      util::FaultRegistry::Get().active();
      util::GlobalThreadPool();
      util::OnGlobalPoolWorker();
    });
  }
  while (ready.load() < static_cast<int>(kThreads)) {
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(
      obs::Registry::Get().GetCounter("race/first_touch")->Value(),
      static_cast<uint64_t>(kThreads));
  // The gate is vacuous if the pool fell back to one worker (everything
  // below would run inline); kPoolWidthForced must have taken effect.
  ASSERT_TRUE(kPoolWidthForced);
  ASSERT_GE(util::GlobalThreadPool().num_threads(), size_t{2});
}

// ---------------------------------------------------------------------------
// ThreadPool schedule/wait churn: several external threads concurrently
// schedule batches and call the pool's global Wait(), interleaved with
// ParallelFor/ParallelForEach on the shared global pool.
TEST(RaceStress, ThreadPoolScheduleWaitChurn) {
  util::ThreadPool pool(kThreads);
  std::atomic<uint64_t> executed{0};
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&pool, &executed] {
      for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 8; ++i) {
          pool.Schedule([&executed] { executed.fetch_add(1); });
        }
        pool.Wait();
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  pool.Wait();
  EXPECT_EQ(executed.load(), uint64_t{kThreads * 20 * 8});
}

TEST(RaceStress, ParallelForEachNestsParallelFor) {
  std::atomic<uint64_t> inner{0};
  // Tasks on the global pool run nested ParallelFor loops, which must
  // detect the worker thread and run inline (OnGlobalPoolWorker).
  util::ParallelForEach(kThreads * 4, [&inner](size_t) {
    util::ParallelFor(64, 8, [&inner](size_t begin, size_t end) {
      inner.fetch_add(end - begin);
    });
  });
  EXPECT_EQ(inner.load(), uint64_t{kThreads * 4 * 64});
}

TEST(RaceStress, ConcurrentParallelForEachGroups) {
  // Private completion groups: concurrent ParallelForEach calls from
  // several external threads must each wait only on their own tasks.
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&total] {
      for (int round = 0; round < 10; ++round) {
        util::ParallelForEach(16, [&total](size_t) { total.fetch_add(1); });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(total.load(), uint64_t{4 * 10 * 16});
}

// ---------------------------------------------------------------------------
// Obs registries under concurrent mutation: counters/gauges/histograms
// updated from kThreads threads while another thread repeatedly snapshots,
// and trace spans recorded on every thread while Enable/Clear churn.
TEST(RaceStress, ObsMetricsConcurrentMutationAndSnapshot) {
  obs::Registry& registry = obs::Registry::Get();
  obs::Counter* counter = registry.GetCounter("race/obs_counter");
  obs::Gauge* gauge = registry.GetGauge("race/obs_gauge");
  obs::Gauge* high_water = registry.GetGauge("race/obs_high_water");
  obs::Histogram* histogram = registry.GetHistogram("race/obs_histogram");
  counter->Reset();
  histogram->Reset();
  constexpr int kPerThread = 400;
  std::atomic<bool> done{false};
  std::thread snapshotter([&registry, &done] {
    while (!done.load()) {
      obs::Registry::Snapshot snapshot = registry.TakeSnapshot();
      (void)snapshot;
      (void)registry.TextDump();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        double value = static_cast<double>(t * kPerThread + i);
        gauge->Set(value);
        high_water->UpdateMax(value);
        histogram->Record(1e-6 * static_cast<double>(i + 1));
        // Late-registration path: lookup races against the snapshotter.
        registry.GetCounter("race/obs_counter_" + std::to_string(t))
            ->Increment();
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true);
  snapshotter.join();
  EXPECT_EQ(counter->Value(), uint64_t{kThreads * kPerThread});
  EXPECT_EQ(histogram->Count(), uint64_t{kThreads * kPerThread});
  EXPECT_EQ(high_water->Value(),
            static_cast<double>(kThreads * kPerThread - 1));
}

// Regression for the first-sample min/max seeding race: Record() used to
// plain-store min/max when it saw count 0, which could overwrite a value a
// concurrent thread had just CAS-published — under a barrier start, min/max
// sometimes came back as a mid-range sample instead of the true extremes.
// With min_/max_ seeded to +/-inf the CAS loops alone are correct, so the
// extremes must be exact on every round, including the very first samples.
TEST(RaceStress, HistogramFirstSampleMinMaxSeeding) {
  obs::Histogram* histogram =
      obs::Registry::Get().GetHistogram("race/obs_first_sample");
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    histogram->Reset();
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> recorders;
    recorders.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      recorders.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load()) {
        }
        // Every thread's first Record races for the empty histogram.
        histogram->Record(static_cast<double>(t + 1) * 1e-3);
      });
    }
    while (ready.load() < static_cast<int>(kThreads)) {
    }
    go.store(true);
    for (std::thread& recorder : recorders) recorder.join();
    obs::HistogramStats stats = histogram->Stats();
    ASSERT_EQ(stats.count, static_cast<uint64_t>(kThreads)) << round;
    EXPECT_DOUBLE_EQ(stats.min, 1e-3) << "round " << round;
    EXPECT_DOUBLE_EQ(stats.max, static_cast<double>(kThreads) * 1e-3)
        << "round " << round;
  }
}

TEST(RaceStress, TraceSpansConcurrentWithEnableClear) {
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable(256);
  std::atomic<bool> done{false};
  std::thread controller([&tracer, &done] {
    while (!done.load()) {
      tracer.Enable(128);
      (void)tracer.Events();
      tracer.Clear();
      tracer.Enable(256);
    }
  });
  std::vector<std::thread> spanners;
  spanners.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    spanners.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        OBS_SPAN("race/outer");
        OBS_SPAN("race/inner");
      }
    });
  }
  for (std::thread& spanner : spanners) spanner.join();
  done.store(true);
  controller.join();
  tracer.Disable();
  tracer.Clear();
}

// ---------------------------------------------------------------------------
// Fault registry: concurrent Hit/hits/Configure churn on armed points.
TEST(RaceStress, FaultRegistryConcurrentHits) {
  util::FaultRegistry& faults = util::FaultRegistry::Get();
  // Injected failures each log a WARN line; keep the stress run quiet.
  util::LogLevel previous_level = util::MinLogLevel();
  util::SetMinLogLevel(util::LogLevel::kError);
  ASSERT_TRUE(faults.Configure("race/point=prob:0.5:7").ok());
  std::vector<std::thread> hitters;
  hitters.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    hitters.emplace_back([&faults] {
      for (int i = 0; i < 200; ++i) {
        (void)faults.Hit("race/point").ok();
        (void)faults.hits("race/point");
      }
    });
  }
  for (std::thread& hitter : hitters) hitter.join();
  EXPECT_EQ(faults.hits("race/point"), uint64_t{kThreads * 200});
  faults.Clear();
  util::SetMinLogLevel(previous_level);
}

// ---------------------------------------------------------------------------
// Parallel MCQ decode: the production eval pattern — ParallelForEach fans
// MCQ scoring out over the global pool, each task running its own
// one-slot BatchedDecodeSession (prefill + snapshot/restore churn) against
// one shared model.
// The model weights are shared read-only; obs engine metrics are the shared
// mutable state.
TEST(RaceStress, ParallelMcqDecodeSharedModel) {
  model::TransformerConfig config;
  config.vocab_size = 32;
  config.dim = 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_hidden = 16;
  config.max_seq_len = 16;
  util::Rng rng(1234);
  model::TransformerLM lm(config, &rng);

  const std::vector<int> prompt = {4, 5, 6, 7};
  const std::vector<std::vector<int>> continuations = {
      {8, 9}, {10, 11}, {12, 13}, {14, 15}};

  // Reference scores from a single-threaded pass; the parallel fan-out
  // must reproduce them bit-exactly (shared weights are read-only, all
  // per-sequence state lives in each task's private session).
  auto prefill_and_restore = [&](const std::vector<int>& continuation) {
    model::BatchedDecodeSession session(lm, 1);
    size_t slot = session.AcquireSlot();
    session.Step({{slot, prompt}});
    model::BatchedDecodeSession::SlotSnapshot mark = session.Snapshot(slot);
    session.Step({{slot, continuation}});
    session.ReleaseSlot(slot);
    slot = session.AcquireSlot();
    session.Restore(slot, mark);
  };
  std::vector<double> expected;
  for (const std::vector<int>& continuation : continuations) {
    prefill_and_restore(continuation);
    expected.push_back(model::SequenceLogProb(lm, prompt, continuation));
  }

  constexpr size_t kTasks = kThreads * 4;
  std::vector<double> scores(kTasks);
  util::ParallelForEach(kTasks, [&](size_t task) {
    const std::vector<int>& continuation =
        continuations[task % continuations.size()];
    prefill_and_restore(continuation);
    scores[task] = model::SequenceLogProb(lm, prompt, continuation);
  });
  for (size_t task = 0; task < kTasks; ++task) {
    ASSERT_TRUE(std::isfinite(scores[task])) << "task " << task;
    EXPECT_EQ(scores[task], expected[task % continuations.size()])
        << "task " << task;
  }
}

// ---------------------------------------------------------------------------
// Prefix-cache swap churn: inserters publish entries across generations and
// readers share lookups while a swapper thread advances the active
// generation and invalidates the outgoing one — the §12 hot-swap path's
// cache traffic compressed into a tight loop. Assertions are coarse
// (budget respected, exact drain at the end); the interleaving is the test.
TEST(RaceStress, PrefixCacheGenerationSwapChurn) {
  constexpr size_t kBudget = 64;
  serve::PrefixCache cache(kBudget);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> generation{0};

  std::thread swapper([&cache, &done, &generation] {
    uint64_t gen = 0;
    while (!done.load()) {
      uint64_t next = gen + 1;
      cache.SetActiveGeneration(next);
      generation.store(next);
      cache.InvalidateGeneration(gen);  // races Insert/Lookup below
      gen = next;
    }
  });
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &generation, t] {
      for (int i = 0; i < 200; ++i) {
        uint64_t gen = (i % 4 == 0) ? 0 : generation.load();
        auto entry = std::make_shared<serve::PrefixCache::Entry>();
        entry->prompt = {static_cast<int>(t), i % 8};
        entry->generation = gen;
        (void)cache.Insert(std::move(entry));
        // Shared lookups: hits pin entries the swapper may be dropping.
        std::shared_ptr<const serve::PrefixCache::Entry> hit =
            cache.Lookup({static_cast<int>(t), i % 8}, gen);
        if (hit != nullptr) {
          EXPECT_EQ(hit->prompt.size(), size_t{2});
        }
        (void)cache.cached_tokens();
        (void)cache.entries();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  done.store(true);
  swapper.join();
  EXPECT_LE(cache.cached_tokens(), kBudget);
  size_t resident = cache.entries();
  EXPECT_EQ(cache.Clear(), resident);
  EXPECT_EQ(cache.entries(), size_t{0});
  EXPECT_EQ(cache.cached_tokens(), size_t{0});
}

// Greedy decode fan-out: concurrent sessions generating token streams from
// the shared model, mixed with metric churn from the same threads.
TEST(RaceStress, ParallelGreedyDecodeSharedModel) {
  model::TransformerConfig config;
  config.vocab_size = 32;
  config.dim = 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_hidden = 16;
  config.max_seq_len = 16;
  util::Rng rng(99);
  model::TransformerLM lm(config, &rng);

  const std::vector<int> prompt = {4, 5, 6};
  const std::vector<int> reference = model::GreedyDecode(lm, prompt, 6);

  constexpr size_t kTasks = kThreads * 2;
  std::vector<std::vector<int>> generated(kTasks);
  util::ParallelForEach(kTasks, [&](size_t task) {
    generated[task] = model::GreedyDecode(lm, prompt, 6);
  });
  for (size_t task = 0; task < kTasks; ++task) {
    EXPECT_EQ(generated[task], reference) << "task " << task;
  }
}


// Submit() racing Shutdown(): the overload-control admission path
// (DESIGN.md §14) must resolve EVERY future no matter how the submit
// interleaves with teardown — late submits get kUnavailable promptly
// instead of a promise that never fires. Churn through full server
// lifecycles with concurrent multi-tenant submitters; a lost promise
// hangs the .get() and the test times out, a locking mistake is a TSan
// report.
TEST(RaceStress, ServeSubmitShutdownChurn) {
  std::vector<std::string> corpus = {"alpha beta gamma delta",
                                     "epsilon zeta eta theta"};
  text::Tokenizer tokenizer = text::Tokenizer::Build(corpus);
  model::TransformerConfig config;
  config.vocab_size = tokenizer.vocab_size();
  config.dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_hidden = 16;
  config.max_seq_len = 32;
  util::Rng rng(99);
  model::TransformerLM lm(config, &rng);

  constexpr int kRounds = 3;
  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 6;
  const char* tenants[] = {"a", "b", "c", ""};
  const serve::Priority tiers[] = {serve::Priority::kHigh,
                                   serve::Priority::kNormal,
                                   serve::Priority::kLow};

  for (int round = 0; round < kRounds; ++round) {
    serve::ServeOptions options;
    options.max_batch_rows = 2;
    options.queue_capacity = 8;
    options.watchdog_interval = std::chrono::milliseconds(5);
    options.admission.tenants["b"].queue_cap = 2;
    serve::InferenceServer server(lm, tokenizer, options);

    std::atomic<size_t> resolved{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          serve::Request request;
          request.prompt = "alpha beta gamma";
          request.max_new_tokens = 2;
          request.tenant_id = tenants[(t + i) % 4];
          request.priority = tiers[i % 3];
          serve::Response response = server.Submit(std::move(request)).get();
          // Any terminal classification is legal mid-teardown; a future
          // that never resolves is the bug this test exists to catch.
          switch (response.status.code()) {
            case util::StatusCode::kOk:
            case util::StatusCode::kResourceExhausted:
            case util::StatusCode::kCancelled:
            case util::StatusCode::kUnavailable:
            case util::StatusCode::kDeadlineExceeded:
              break;
            default:
              ADD_FAILURE() << "unexpected code: " << response.status;
          }
          resolved.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Tear the server down while submitters are mid-flight; later rounds
    // shift the race window across admission, decode, and drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * round));
    server.Shutdown();
    for (std::thread& s : submitters) s.join();
    EXPECT_EQ(resolved.load(), size_t{kSubmitters * kPerThread});
  }
}

}  // namespace
}  // namespace infuserki
