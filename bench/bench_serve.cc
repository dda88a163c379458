// Serving-layer bench (DESIGN.md §10/§11): floods InferenceServer with
// asynchronous requests at each batch width in the sweep and reports
// throughput, p50/p99 latency, and shed rate, plus a conservation check
// over the serve/ accounting counters. The `batched_speedup=` line is the
// continuous-batching headline: throughput at the widest batch over the
// sequential (--batch_sweep row 1) baseline, gated at >= 2x by
// check_build.sh. Doubles as the check_build.sh chaos smoke: run with
// INFUSERKI_FAULTS armed and an undersized --kv_budget, the final
// "serve_accounting=ok" line proves no request was lost or double-counted
// under fault churn.
//
// Flags: --batch_sweep=1,2,4,8 (comma list of max_batch_rows)
// --max_batch_tokens=256 --requests=96 --queue=32 --kv_budget=64
// --max_new=8 --deadline_ms=0 (0 = none) --seed=17
// --arrival=closed|poisson|burst (closed = flood everything up front;
// poisson/burst pace submissions open-loop at --offered_qps from the
// seeded RNG — poisson draws exponential gaps, burst sends groups of 16
// back-to-back — and additionally report offered vs achieved qps plus the
// mean brownout level observed while the round ran, DESIGN.md §14)
// --bench_json=<path> (SLO trajectory output, e.g. BENCH_serve.json;
// appended as one NDJSON line per run so the file accumulates a
// trajectory across commits) plus the shared --trace_out / --metrics_out /
// --metrics_export_every / --metrics_export_ndjson / --prom_out
// observability outputs. The session's exporter runs beside every round's
// server; each server's watchdog samples serve/queue_depth_samples into the
// registry the exporter publishes.
//
// Latency quantiles are derived from the obs registry's exponential-bucket
// histograms and cross-checked against this binary's own sorted-vector
// percentiles: both must land in the same (or an adjacent) histogram
// bucket, printed as the "serve_quantiles=ok" gate line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "model/transformer.h"
#include "obs/atomic_io.h"
#include "obs/json.h"
#include "obs/slo_report.h"
#include "serve/server.h"
#include "text/tokenizer.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace infuserki {
namespace {

std::vector<size_t> ParseBatchList(const std::string& spec) {
  std::vector<size_t> batch_rows;
  for (const std::string& piece : util::Split(spec, ",")) {
    int64_t value = std::atoll(piece.c_str());
    if (value > 0) batch_rows.push_back(static_cast<size_t>(value));
  }
  if (batch_rows.empty()) batch_rows = {1, 2, 4, 8};
  return batch_rows;
}

/// Latency percentile over completed requests, nearest-rank with
/// k = ceil(p * n) — the same rank convention as obs::HistogramQuantile,
/// so the cross-check below compares the same underlying sample.
double PercentileMs(const std::vector<double>& sorted_seconds, double p) {
  if (sorted_seconds.empty()) return 0.0;
  size_t n = sorted_seconds.size();
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return sorted_seconds[rank - 1] * 1e3;
}

/// "Within one bucket": the obs-derived quantile and the sorted-vector
/// reference must land in the same or an adjacent exponential bucket
/// (adjacency absorbs boundary interpolation), i.e. within 2x relative.
bool WithinOneBucket(double obs_ms, double local_ms) {
  double obs_s = obs_ms * 1e-3;
  double local_s = local_ms * 1e-3;
  size_t obs_bucket = obs::Histogram::BucketIndexFor(obs_s);
  size_t local_bucket = obs::Histogram::BucketIndexFor(local_s);
  size_t hi = std::max(obs_bucket, local_bucket);
  size_t lo = std::min(obs_bucket, local_bucket);
  return hi - lo <= 1;
}

/// One batch-width round of the sweep, as persisted to --bench_json.
struct RoundResult {
  size_t batch_rows = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t degraded = 0;
  double shed_rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double ttft_p50_ms = 0.0;
  double ttft_p99_ms = 0.0;
  double inter_token_p50_ms = 0.0;
  double inter_token_p99_ms = 0.0;
  double req_per_s = 0.0;
  // Open-loop fields (zero in the closed-loop default): the offered
  // arrival rate, the rate the server actually sustained, and the mean
  // brownout level sampled by the watchdog while the round ran.
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double brownout_mean_level = 0.0;
};

std::string RoundJson(const RoundResult& round) {
  obs::JsonWriter out;
  out.AddUint("batch_rows", round.batch_rows)
      .AddUint("completed", round.completed)
      .AddUint("shed", round.shed)
      .AddUint("deadline_misses", round.deadline)
      .AddUint("degraded", round.degraded)
      .AddNumber("shed_rate", round.shed_rate)
      .AddNumber("p50_ms", round.p50_ms)
      .AddNumber("p99_ms", round.p99_ms)
      .AddNumber("p999_ms", round.p999_ms)
      .AddNumber("ttft_p50_ms", round.ttft_p50_ms)
      .AddNumber("ttft_p99_ms", round.ttft_p99_ms)
      .AddNumber("inter_token_p50_ms", round.inter_token_p50_ms)
      .AddNumber("inter_token_p99_ms", round.inter_token_p99_ms)
      .AddNumber("req_per_s", round.req_per_s)
      .AddNumber("offered_qps", round.offered_qps)
      .AddNumber("achieved_qps", round.achieved_qps)
      .AddNumber("brownout_mean_level", round.brownout_mean_level);
  return out.Finish();
}

struct CounterSnapshot {
  uint64_t requests, completed, shed, deadline, cancelled, failures;
  uint64_t degraded, retries, evictions, prefix_hits;
};

CounterSnapshot ReadCounters() {
  obs::Registry& registry = obs::Registry::Get();
  auto value = [&](const char* name) {
    return registry.GetCounter(name)->Value();
  };
  return {value("serve/requests"),       value("serve/completed"),
          value("serve/shed"),           value("serve/deadline_misses"),
          value("serve/cancelled"),      value("serve/failures"),
          value("serve/degraded"),       value("serve/retries"),
          value("serve/evictions"),      value("serve/prefix_hits")};
}

}  // namespace
}  // namespace infuserki

int main(int argc, char** argv) {
  using namespace infuserki;  // NOLINT(build/namespaces)
  util::Flags flags(argc, argv);
  bench::ObsSession obs_session("bench_serve", flags);

  const std::vector<size_t> batch_sweep =
      ParseBatchList(flags.GetString("batch_sweep", "1,2,4,8"));
  const size_t max_batch_tokens =
      static_cast<size_t>(flags.GetInt("max_batch_tokens", 256));
  const size_t requests =
      static_cast<size_t>(flags.GetInt("requests", 96));
  const size_t queue = static_cast<size_t>(flags.GetInt("queue", 32));
  const size_t kv_budget =
      static_cast<size_t>(flags.GetInt("kv_budget", 64));
  const size_t max_new = static_cast<size_t>(flags.GetInt("max_new", 8));
  const int64_t deadline_ms = flags.GetInt("deadline_ms", 0);
  const std::string bench_json = flags.GetString("bench_json", "");
  const std::string arrival = flags.GetString("arrival", "closed");
  const double offered_qps = flags.GetDouble("offered_qps", 0.0);
  if (arrival != "closed" && arrival != "poisson" && arrival != "burst") {
    std::cerr << "unknown --arrival=" << arrival
              << " (want closed|poisson|burst)\n";
    return 1;
  }
  const bool open_loop = arrival != "closed";
  if (open_loop && offered_qps <= 0.0) {
    std::cerr << "--arrival=" << arrival
              << " requires --offered_qps > 0\n";
    return 1;
  }

  obs_session.manifest().AddConfig("requests",
                                   static_cast<int64_t>(requests));
  obs_session.manifest().AddConfig("queue", static_cast<int64_t>(queue));
  obs_session.manifest().AddConfig("kv_budget",
                                   static_cast<int64_t>(kv_budget));

  // Untrained model: serving cost does not depend on weight values.
  std::vector<std::string> corpus = {
      "alpha beta gamma delta epsilon zeta eta theta iota kappa",
      "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi",
  };
  text::Tokenizer tokenizer = text::Tokenizer::Build(corpus);
  model::TransformerConfig config;
  config.vocab_size = tokenizer.vocab_size();
  config.dim = static_cast<size_t>(flags.GetInt("dim", 32));
  config.num_layers = static_cast<size_t>(flags.GetInt("layers", 4));
  config.num_heads = 2;
  config.ffn_hidden = config.dim * 2;
  config.max_seq_len = 48;
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 17)));
  model::TransformerLM lm(config, &rng);

  const std::vector<std::string> prompts = {
      "alpha beta gamma",
      "lambda mu nu xi",
      "sigma tau upsilon phi chi",
      "theta iota kappa lambda mu nu",
      "epsilon zeta",
      "pi rho sigma",
      "chi phi upsilon tau",
      "beta delta zeta theta kappa",
  };

  util::TablePrinter table({"batch", "completed", "shed", "deadline",
                            "degraded", "p50_ms", "p99_ms", "p999_ms",
                            "ttft_p50_ms", "req_per_s"});
  obs::Registry& registry = obs::Registry::Get();
  bool accounting_ok = true;
  bool quantiles_ok = true;
  bool hints_ok = true;
  std::vector<RoundResult> rounds;
  obs::Registry::Snapshot run_before = registry.TakeSnapshot();

  for (size_t batch_rows : batch_sweep) {
    CounterSnapshot before = ReadCounters();
    obs::Registry::Snapshot round_before = registry.TakeSnapshot();
    serve::ServeOptions options;
    options.max_batch_rows = batch_rows;
    options.max_batch_tokens = max_batch_tokens;
    options.queue_capacity = queue;
    options.kv_budget_tokens = kv_budget;
    options.default_max_new_tokens = max_new;
    options.retry = {.max_attempts = 3, .base_delay_ms = 1};
    serve::InferenceServer server(lm, tokenizer, options);

    // Open-loop arrival schedule: target submit times in seconds from the
    // round start, drawn from the seeded RNG so every run replays the same
    // offered trace. Poisson draws exponential inter-arrival gaps at
    // `offered_qps`; burst sends groups of 16 back-to-back, then one gap
    // sized for the whole group (same mean rate, spiky shape).
    util::Rng arrivals(static_cast<uint64_t>(flags.GetInt("seed", 17)) +
                       batch_rows);
    std::vector<double> arrival_times(requests, 0.0);
    if (open_loop) {
      double at = 0.0;
      for (size_t k = 0; k < requests; ++k) {
        arrival_times[k] = at;
        if (arrival == "poisson") {
          double u = arrivals.Uniform(0.0, 1.0);
          at += -std::log(1.0 - u) / offered_qps;
        } else if (k % 16 == 15) {
          at += 16.0 / offered_qps * arrivals.Uniform(0.5, 1.5);
        }
      }
    }

    util::Stopwatch watch;
    std::vector<std::future<serve::Response>> pending;
    pending.reserve(requests);
    for (size_t k = 0; k < requests; ++k) {
      if (open_loop) {
        // Open-loop contract: never wait on the server, only on the clock.
        double wait_s = arrival_times[k] - watch.ElapsedSeconds();
        if (wait_s > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
        }
      }
      serve::Request request;
      request.prompt = prompts[k % prompts.size()];
      request.max_new_tokens = max_new;
      if (deadline_ms > 0) {
        request.deadline = std::chrono::milliseconds(deadline_ms);
      }
      pending.push_back(server.Submit(std::move(request)));
    }
    std::vector<double> latencies;
    latencies.reserve(requests);
    for (std::future<serve::Response>& future : pending) {
      serve::Response response = future.get();
      if (response.status.ok()) {
        latencies.push_back(response.total_seconds);
      } else if (response.status.code() ==
                 util::StatusCode::kResourceExhausted) {
        // Every shed response must carry a usable client backoff hint
        // (DESIGN.md §14) — in the field and parseable from the status.
        if (response.retry_after_seconds <= 0.0 ||
            util::RetryAfterSeconds(response.status) <= 0.0) {
          hints_ok = false;
          std::cerr << "shed response without retry_after hint at "
                       "batch_rows="
                    << batch_rows << ": " << response.status << "\n";
        }
      }
    }
    double elapsed = watch.ElapsedSeconds();
    server.Shutdown();

    CounterSnapshot after = ReadCounters();
    uint64_t round_requests = after.requests - before.requests;
    uint64_t completed = after.completed - before.completed;
    uint64_t shed = after.shed - before.shed;
    uint64_t deadline = after.deadline - before.deadline;
    uint64_t degraded = after.degraded - before.degraded;
    uint64_t classified = completed + shed + deadline +
                          (after.cancelled - before.cancelled) +
                          (after.failures - before.failures);
    if (round_requests != requests || classified != round_requests) {
      accounting_ok = false;
      std::cerr << "accounting mismatch at batch_rows=" << batch_rows
                << ": submitted=" << round_requests
                << " classified=" << classified << "\n";
    }

    // Headline quantiles come from the obs registry's exponential-bucket
    // histograms; the locally sorted latency vector is kept as the
    // cross-check reference ("within one bucket" = same underlying rank,
    // bounded bucket-interpolation error).
    obs::Registry::Snapshot round_after = registry.TakeSnapshot();
    auto round_delta = [&](const char* name) {
      return obs::Registry::HistogramDelta(round_before, round_after, name);
    };
    obs::HistogramStats e2e = round_delta("serve/e2e_ok_seconds");
    obs::HistogramStats ttft = round_delta("serve/ttft_seconds");
    obs::HistogramStats inter_token = round_delta("serve/inter_token_seconds");

    std::sort(latencies.begin(), latencies.end());
    double p50 = e2e.p50 * 1e3;
    double p99 = e2e.p99 * 1e3;
    double p999 = e2e.p999 * 1e3;
    double local_p50 = PercentileMs(latencies, 0.50);
    double local_p99 = PercentileMs(latencies, 0.99);
    if (!latencies.empty()) {
      if (e2e.count != latencies.size()) {
        quantiles_ok = false;
        std::cerr << "quantile count mismatch at batch_rows=" << batch_rows
                  << ": obs=" << e2e.count
                  << " local=" << latencies.size() << "\n";
      }
      if (!WithinOneBucket(p50, local_p50) ||
          !WithinOneBucket(p99, local_p99)) {
        quantiles_ok = false;
        std::cerr << "quantile divergence at batch_rows=" << batch_rows
                  << ": obs p50_ms=" << p50 << " local=" << local_p50
                  << ", obs p99_ms=" << p99 << " local=" << local_p99
                  << "\n";
      }
    }
    double throughput =
        elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;

    RoundResult round;
    round.batch_rows = batch_rows;
    round.completed = completed;
    round.shed = shed;
    round.deadline = deadline;
    round.degraded = degraded;
    round.shed_rate = round_requests > 0
                          ? static_cast<double>(shed) /
                                static_cast<double>(round_requests)
                          : 0.0;
    round.p50_ms = p50;
    round.p99_ms = p99;
    round.p999_ms = p999;
    round.ttft_p50_ms = ttft.p50 * 1e3;
    round.ttft_p99_ms = ttft.p99 * 1e3;
    round.inter_token_p50_ms = inter_token.p50 * 1e3;
    round.inter_token_p99_ms = inter_token.p99 * 1e3;
    round.req_per_s = throughput;
    if (open_loop) {
      round.offered_qps = offered_qps;
      round.achieved_qps = throughput;
      obs::HistogramStats brownout =
          round_delta("serve/brownout_level_samples");
      round.brownout_mean_level =
          brownout.count > 0
              ? brownout.sum / static_cast<double>(brownout.count)
              : 0.0;
    }
    rounds.push_back(round);

    table.AddRow({std::to_string(batch_rows), std::to_string(completed),
                  std::to_string(shed), std::to_string(deadline),
                  std::to_string(degraded), util::FormatFloat(p50, 2),
                  util::FormatFloat(p99, 2), util::FormatFloat(p999, 2),
                  util::FormatFloat(round.ttft_p50_ms, 2),
                  util::FormatFloat(throughput, 1)});
    std::cout << "serve_bench: batch_rows=" << batch_rows
              << " requests=" << round_requests
              << " completed=" << completed << " shed=" << shed
              << " deadline_misses=" << deadline
              << " degraded=" << degraded
              << " retries=" << (after.retries - before.retries)
              << " evictions=" << (after.evictions - before.evictions)
              << " prefix_hits=" << (after.prefix_hits - before.prefix_hits)
              << " p50_ms=" << util::FormatFloat(p50, 3)
              << " p99_ms=" << util::FormatFloat(p99, 3)
              << " p999_ms=" << util::FormatFloat(p999, 3)
              << " ttft_p50_ms=" << util::FormatFloat(round.ttft_p50_ms, 3)
              << " inter_token_p50_ms="
              << util::FormatFloat(round.inter_token_p50_ms, 3)
              << " req_per_s=" << util::FormatFloat(throughput, 1);
    if (open_loop) {
      std::cout << " arrival=" << arrival << " offered_qps="
                << util::FormatFloat(round.offered_qps, 1)
                << " achieved_qps="
                << util::FormatFloat(round.achieved_qps, 1)
                << " shed_rate=" << util::FormatFloat(round.shed_rate, 3)
                << " brownout_mean_level="
                << util::FormatFloat(round.brownout_mean_level, 3);
    }
    std::cout << "\n";

    // Published per batch width under the bench_* glob (DESIGN.md §6) so
    // --metrics_out manifests carry the headline numbers; later rounds
    // overwrite earlier ones, the table keeps the full sweep.
    registry.GetGauge("serve/bench_p50_ms")->Set(p50);
    registry.GetGauge("serve/bench_p99_ms")->Set(p99);
    registry.GetGauge("serve/bench_p999_ms")->Set(p999);
    registry.GetGauge("serve/bench_ttft_p50_ms")->Set(round.ttft_p50_ms);
    registry.GetGauge("serve/bench_req_per_s")->Set(throughput);
    registry.GetGauge("serve/bench_completed")
        ->Set(static_cast<double>(completed));
    registry.GetGauge("serve/bench_shed")->Set(static_cast<double>(shed));
  }

  std::cout << "\n=== bench_serve (requests=" << requests
            << " queue=" << queue << " kv_budget=" << kv_budget
            << " max_new=" << max_new
            << " max_batch_tokens=" << max_batch_tokens << ") ===\n\n";
  table.Print(std::cout);
  std::cout << "\nserve_accounting=" << (accounting_ok ? "ok" : "FAILED")
            << "\n";
  std::cout << "serve_quantiles=" << (quantiles_ok ? "ok" : "FAILED")
            << "\n";
  std::cout << "serve_shed_hints=" << (hints_ok ? "ok" : "FAILED") << "\n";

  // Continuous-batching headline: throughput at the widest batch in the
  // sweep over the sequential baseline (the batch_rows=1 round). Printed
  // only when the sweep contains both, which is how check_build.sh invokes
  // it for the >= 2x floor.
  double batched_speedup = 0.0;
  {
    const RoundResult* baseline = nullptr;
    const RoundResult* widest = nullptr;
    for (const RoundResult& round : rounds) {
      if (round.batch_rows == 1) baseline = &round;
      if (widest == nullptr || round.batch_rows > widest->batch_rows) {
        widest = &round;
      }
    }
    if (baseline != nullptr && widest != nullptr &&
        widest->batch_rows > 1 && baseline->req_per_s > 0.0) {
      batched_speedup = widest->req_per_s / baseline->req_per_s;
      registry.GetGauge("serve/bench_batched_speedup")
          ->Set(batched_speedup);
      std::cout << "batched_speedup="
                << util::FormatFloat(batched_speedup, 3) << "\n";
    }
  }

  // SLO trajectory point (ROADMAP items 2 and 5): per-round quantiles plus
  // the whole-run SLO summary, everything sourced from the obs registry.
  // Appended as one NDJSON line so BENCH_serve.json accumulates one point
  // per commit — the across-PR trajectory README.md describes.
  if (!bench_json.empty()) {
    obs::Registry::Snapshot run_after = registry.TakeSnapshot();
    obs::SloReport slo = obs::BuildSloReport(run_before, run_after);
    obs::JsonWriter config_json;
    config_json.AddUint("requests", requests)
        .AddUint("queue", queue)
        .AddUint("kv_budget", kv_budget)
        .AddUint("max_new", max_new)
        .AddUint("max_batch_tokens", max_batch_tokens)
        .AddInt("deadline_ms", deadline_ms)
        .AddString("arrival", arrival)
        .AddNumber("offered_qps", offered_qps);
    std::ostringstream rounds_json;
    rounds_json << "[";
    for (size_t i = 0; i < rounds.size(); ++i) {
      if (i > 0) rounds_json << ",";
      rounds_json << RoundJson(rounds[i]);
    }
    rounds_json << "]";
    obs::JsonWriter out;
    // Schema 3: rounds carry offered_qps/achieved_qps/brownout_mean_level
    // and the slo block the per-reason shed + watchdog counters (§14).
    out.AddString("bench", "bench_serve")
        .AddUint("schema", 3)
        .AddRaw("config", config_json.Finish())
        .AddNumber("batched_speedup", batched_speedup)
        .AddRaw("rounds", rounds_json.str())
        .AddRaw("slo", obs::SloReportJson(slo));
    std::string history;
    {
      std::ifstream existing(bench_json);
      if (existing) {
        std::ostringstream os;
        os << existing.rdbuf();
        history = os.str();
        if (!history.empty() && history.back() != '\n') history += '\n';
      }
    }
    if (obs::WriteFileAtomically(bench_json,
                                 history + out.Finish() + "\n")) {
      std::cout << "(appended SLO trajectory point to " << bench_json
                << ")\n";
    } else {
      std::cerr << "bench_json write failed: " << bench_json << "\n";
    }
  }
  obs_session.Finish();
  return (accounting_ok && quantiles_ok && hints_ok) ? 0 : 1;
}
