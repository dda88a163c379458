#ifndef INFUSERKI_SERVE_SERVER_H_
#define INFUSERKI_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "model/batched_session.h"
#include "model/serve_adapter.h"
#include "model/transformer.h"
#include "obs/trace.h"
#include "serve/adapter_registry.h"
#include "serve/admission.h"
#include "serve/prefix_cache.h"
#include "text/tokenizer.h"
#include "util/fault.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace infuserki::serve {

/// Tuning knobs for InferenceServer (see DESIGN.md §10/§11).
struct ServeOptions {
  /// In-flight rows the continuous-batching scheduler decodes together —
  /// the KV slot-pool size. 1 degenerates to sequential one-request-at-a-
  /// time decoding (the baseline bench_micro_tensor's BM_ServeFlood gates
  /// the width-8 run against).
  size_t max_batch_rows = 4;
  /// Per-step new-token budget for the ragged batched forward: admission
  /// of prefills stops once the tokens fed to one step (one per in-flight
  /// decode row, plus the whole prompt of each row still to prefill:
  /// admitted misses and degraded restarts) would exceed this. A prompt
  /// that alone exceeds the budget still runs — solo.
  size_t max_batch_tokens = 256;
  /// Admission-queue capacity: Submit() on a full queue sheds the request
  /// with kResourceExhausted instead of queueing unbounded work.
  size_t queue_capacity = 16;
  /// KV-token budget for the prompt-prefix cache (0 disables caching).
  size_t kv_budget_tokens = 1024;
  /// Cap applied when a request leaves `max_new_tokens` at 0.
  size_t default_max_new_tokens = 16;
  /// Deadline applied when a request leaves `deadline` at zero; zero here
  /// too means requests without a deadline run unbounded.
  std::chrono::milliseconds default_deadline{0};
  /// Graceful-drain budget for Shutdown(): when > 0, shutdown lets
  /// already-admitted AND queued requests run to completion for up to this
  /// long before cancelling whatever remains, so a queue that fits the
  /// budget shuts down with zero cancellations. 0 keeps the original
  /// behavior (queued requests cancelled immediately, in-flight rows
  /// cancelled at the next token).
  std::chrono::milliseconds drain_deadline{0};
  /// Retry policy for fault-injectable steps (tokenize / prefill / decode
  /// step). The per-request deadline is merged into `retry.deadline` via
  /// util::BoundDeadline before each use (earliest bound wins), so retries
  /// never outlive the request NOR a server-wide retry deadline.
  util::RetryOptions retry;
  /// Multi-tenant admission policy: per-tenant WDRR weights, queue caps,
  /// and token-bucket rate limits (DESIGN.md §14). The global bound is
  /// `queue_capacity` above.
  AdmissionOptions admission = {};
  /// Brownout hysteresis thresholds and degradation knobs (DESIGN.md §14).
  BrownoutOptions brownout = {};
  /// Deadline-infeasibility shedding: a request whose minimum service-time
  /// estimate (EWMA prefill/decode rates) exceeds `feasibility_margin`
  /// times its deadline budget is shed at admission with a `retry_after`
  /// hint instead of burning batch budget it provably cannot use. > 1
  /// demands a proof margin over the (noisy) estimate; 0 disables.
  double feasibility_margin = 4.0;
  /// Watchdog tick period: brownout evaluation and decode-loop heartbeat
  /// checks run once per interval. Must be > 0.
  std::chrono::milliseconds watchdog_interval{50};
  /// A decode loop whose heartbeat has not advanced for this long while
  /// work is pending is declared stalled: the watchdog fails the stuck
  /// batch with kUnavailable and the scheduler restarts its session with
  /// the queue intact (DESIGN.md §14). 0 disables stall detection
  /// (brownout ticks still run). Keep generous: a legitimate batched step
  /// under TSan can take tens of milliseconds.
  std::chrono::milliseconds watchdog_stall_timeout{2000};
};

/// Validates `options` (zero batch/queue sizes, negative deadlines,
/// inverted brownout hysteresis, ...). The server runs this at
/// construction and fails fast: an invalid server resolves every Submit()
/// with the validation error instead of feeding undefined scheduler
/// behavior.
util::Status ValidateServeOptions(const ServeOptions& options);

/// One inference request. `max_new_tokens` 0 and `deadline` 0 fall back to
/// the server-wide defaults.
struct Request {
  std::string prompt;
  size_t max_new_tokens = 0;
  std::chrono::milliseconds deadline{0};
  /// Tenant this request bills against for fair admission (WDRR weight,
  /// queue cap, rate limit). Empty buckets under "default". The explicit
  /// initializer keeps brace-init call sites like `{prompt, 8}` clean
  /// under -Wmissing-field-initializers.
  std::string tenant_id = {};
  /// Priority tier: strict priority at admission, first-shed order under
  /// brownout (DESIGN.md §14).
  Priority priority = Priority::kNormal;
};

/// Outcome of one request. `status` is OK for a served request (including
/// degraded ones); kResourceExhausted for shed requests; kDeadlineExceeded
/// when the deadline fired (tokens then holds the partial prefix decoded so
/// far); kCancelled / kUnavailable around shutdown; kInvalidArgument for
/// malformed input; other codes for permanent decode failures.
struct Response {
  util::Status status = util::Status::OK();
  std::vector<int> tokens;  // newly generated ids (no prompt, no <eos>)
  std::string text;         // decoded `tokens`
  bool prefix_hit = false;  // served from a cached prefill
  bool degraded = false;    // restarted from its prompt after a fault
  int retries = 0;          // transient faults absorbed by backoff
  /// Process-unique request id; doubles as the async track id under which
  /// this request's lifecycle renders in the Chrome trace. Always set,
  /// including for shed and cancelled requests.
  uint64_t request_id = 0;
  /// Adapter version the request was pinned to at admission (0 = base
  /// model): the whole token stream was decoded under exactly this version
  /// no matter how many swaps happened mid-flight (DESIGN.md §12).
  uint64_t adapter_sequence = 0;
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
  /// Admission → first token of the delivered stream; 0 when no token was
  /// generated (shed, cancelled, empty decode).
  double ttft_seconds = 0.0;
  /// Client backoff hint, seconds. Nonzero on every shed response
  /// (kResourceExhausted): the token-bucket refill time for rate-limit
  /// sheds, a queue-drain estimate for capacity sheds, the minimum
  /// service-time estimate for deadline-infeasible sheds. Also embedded in
  /// the status message (util::RetryAfterSeconds parses it back).
  double retry_after_seconds = 0.0;
};

/// Continuous-batching greedy-decode service over one TransformerLM.
///
/// A single scheduler thread owns a BatchedDecodeSession with
/// `max_batch_rows` KV slots and runs one loop: each iteration it admits
/// queued requests into free slots (prefills budgeted by
/// `max_batch_tokens`), picks every in-flight row's next token, retires
/// rows that finished / missed their deadline / were cancelled — without
/// stalling the rest — and forwards all surviving rows' new tokens in ONE
/// ragged batched step. A request that loses its KV state to a permanent
/// fault restarts from its prompt in a fresh slot of the same batch: it
/// re-prefills on a later step while the other rows keep decoding.
///
/// Resilience contract (DESIGN.md §10): a bounded admission queue sheds
/// load instead of queueing unbounded work; every request carries a
/// deadline checked at token granularity (expiry returns the partial
/// decode, never wedges the scheduler); prefilled prompt prefixes are
/// shared across concurrent requests under an LRU KV-token budget;
/// transient faults on the tokenize / prefill / decode-step fault points
/// are retried with backoff, and a permanent prefill or mid-decode failure
/// degrades the request (an in-batch restart that bypasses the prefix
/// cache) instead of failing it. Served token streams are bit-exact with
/// single-threaded GreedyDecode, degraded or not.
///
/// Overload control (DESIGN.md §14): admission runs through per-tenant
/// WDRR queues with strict priority tiers, per-tenant caps and token
/// buckets, so one tenant's burst sheds that tenant, not the fleet; every
/// shed response carries a nonzero retry-after hint. A request that
/// provably cannot meet its deadline (EWMA service-rate estimate) is shed
/// at admission. Under sustained queue pressure a brownout controller
/// steps through documented degradation levels with hysteresis, and a
/// watchdog thread heartbeats the decode loop — a stalled step fails its
/// batch with kUnavailable and the scheduler restarts without dropping
/// queued work (fault point `serve/decode_stall`).
///
/// Hot swap (DESIGN.md §12): SwapAdapters() publishes a new adapter
/// version with epoch/RCU semantics — each request pins the active version
/// at admission (a shared_ptr that keeps the weights alive) and decodes
/// every token under it; new admissions pick up the new version
/// immediately. The decode loop is never stalled: a step serving two
/// generations simply runs one packed forward per generation, so a swap
/// under full load drops zero requests. PrefixCache entries carry the
/// generation that prefilled them; the swap invalidates exactly the
/// replaced generation's prefixes (base-model prefixes survive).
///
/// Submit() is thread-safe, as is SwapAdapters(). The model and tokenizer
/// must outlive the server; the scheduler only reads them.
class InferenceServer {
 public:
  InferenceServer(const model::TransformerLM& lm,
                  const text::Tokenizer& tokenizer,
                  ServeOptions options = {});

  /// Runs Shutdown(): cancels or drains queued requests and joins the
  /// scheduler and watchdog threads.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues a request. The future resolves when the request completes,
  /// is shed (immediately, with kResourceExhausted), or is cancelled by
  /// shutdown; it never blocks forever.
  std::future<Response> Submit(Request request) EXCLUDES(mu_);

  /// Synchronous convenience wrapper around Submit().
  Response Run(Request request);

  /// Stops accepting work and joins the scheduler and watchdog threads.
  /// With `drain_deadline` 0: queued requests are cancelled immediately
  /// (kUnavailable) and in-flight rows notice cancellation at the next
  /// token. With a drain budget, admitted and queued work keeps running
  /// and only what is still unfinished at the deadline is cancelled.
  /// Idempotent; also run by the destructor.
  void Shutdown() EXCLUDES(mu_);

  /// Atomically replaces the adapter set served to NEW admissions.
  /// In-flight requests finish on the version they pinned at admission;
  /// the PrefixCache switches to the new generation and drops the replaced
  /// one's prefixes. Pass a default AdapterVersion{} (null adapter) to
  /// swap back to the base model. Callable any time, including under full
  /// load and before/after Shutdown(). An adapter that does not fit the
  /// model (model_dim differs, or an adapted layer the model lacks) is
  /// rejected with kInvalidArgument and the active version stays.
  util::Status SwapAdapters(AdapterVersion version) EXCLUDES(mu_);

  /// Sequence of the version new admissions currently pin (0 = base).
  uint64_t active_adapter_sequence() const EXCLUDES(mu_);

  /// Requests currently queued (excludes in-flight ones).
  size_t queue_depth() const EXCLUDES(mu_);

  /// KV tokens currently held by the prefix cache.
  size_t cached_tokens() const { return cache_.cached_tokens(); }

  /// Construction-time validation result (ValidateServeOptions). A non-OK
  /// server never starts its threads; every Submit() resolves immediately
  /// with this status. Immutable after construction.
  const util::Status& init_status() const { return init_status_; }

  /// Current brownout degradation level (0 = normal; DESIGN.md §14).
  int brownout_level() const { return brownout_.level(); }

  /// Pre-loads the service-rate estimate behind deadline-infeasibility
  /// shedding (tokens/second), e.g. warm-starting a fresh server from a
  /// previous run's observed rates. Live observations blend the seed away.
  void SeedRateEstimate(double prefill_tokens_per_s,
                        double decode_tokens_per_s) {
    estimator_.SeedRates(prefill_tokens_per_s, decode_tokens_per_s);
  }

 private:
  /// One request from Submit() to Deliver(): queued behind the admission
  /// Item base, then owned by the scheduler as a batch row. A job deferred
  /// by the step-token budget goes back to the queue head as the same
  /// object, keeping its tokenized prompt and its absorbed-retry count.
  struct Job : AdmissionController::Item {
    Request request;
    std::promise<Response> promise;
    Response response;  // assembled in place; request_id set by Submit()
    // Absolute deadline; the epoch default means none.
    std::chrono::steady_clock::time_point deadline{};
    std::chrono::steady_clock::time_point enqueued{};
    // Request-scoped trace handle, allocated at admission; every lifecycle
    // event for this request lands on its async track.
    obs::RequestTrace trace;
    util::Stopwatch watch;  // processing clock, reset per admission attempt
    // Empty until tokenized: every encoding starts with <bos>.
    std::vector<int> prompt_ids;
    size_t max_new = 0;
    std::vector<int> generated;
    std::vector<float> next_row;  // logits row scoring the next token
    bool prefilled = false;       // false → prompt not yet forwarded
    // Prompt-boundary snapshot shared with / destined for the PrefixCache.
    std::shared_ptr<const PrefixCache::Entry> cache_entry;
    // Adapter version pinned at admission (null = base model). The
    // shared_ptr keeps the weights alive for the job's whole lifetime,
    // across any number of swaps (epoch pinning, DESIGN.md §12).
    std::shared_ptr<const AdapterVersion> version;
    size_t slot = 0;
    int64_t step_begin_us = 0;
    int64_t last_token_us = 0;
  };

  void SchedulerLoop() EXCLUDES(mu_);

  /// Watchdog thread body: once per `watchdog_interval` it samples queue
  /// depth into `serve/queue_depth_samples`, feeds queue occupancy to the
  /// brownout controller, and checks the scheduler heartbeat; a heartbeat
  /// frozen for `watchdog_stall_timeout` while work is pending raises
  /// `serve/watchdog_stalls` and aborts the stuck batch (DESIGN.md §14).
  void WatchdogLoop() EXCLUDES(mu_);

  /// Admits a popped admission entry into `rows`. Returns false when the
  /// job was deferred (returned to the admission queue head) because its
  /// prefill does not fit the current step's token budget.
  bool AdmitOne(AdmissionController::Entry entry,
                model::BatchedDecodeSession* session,
                std::vector<std::unique_ptr<Job>>* rows,
                size_t* step_tokens) EXCLUDES(mu_);

  /// Marks `job` degraded and restarts it from its prompt: the stream
  /// so far is dropped and the row re-prefills into an empty slot, which
  /// the caller provides. From then on it fires no prefill/decode fault
  /// points and neither reads nor writes the prefix cache.
  void Degrade(Job* job);

  /// Resolves queued jobs that never reached the batch with kUnavailable.
  void CancelQueued(std::vector<AdmissionController::Entry> entries);

  /// Terminal accounting: classifies `status` into the conservation
  /// counters, records per-outcome latency, closes the request's trace
  /// track, and resolves the promise.
  void Deliver(Job* job, util::Status status);

  /// TTFT / inter-token bookkeeping for the token just appended.
  void NoteToken(Job* job);

  /// Runs `step` under the request-deadline-bounded retry policy,
  /// accumulating retry counts into the job's response.
  util::Status RetryStep(Job* job, const std::function<util::Status()>& step,
                         const std::string& what);

  bool Expired(const Job& job) const {
    return job.deadline != std::chrono::steady_clock::time_point{} &&
           std::chrono::steady_clock::now() >= job.deadline;
  }

  /// True once work must be cancelled NOW: either an immediate shutdown,
  /// or a graceful drain whose deadline has passed (latches
  /// `shutting_down_` on first observation so every thread converges).
  bool HardCancel();

  /// Snapshot of the version new admissions pin (null = base model).
  std::shared_ptr<const AdapterVersion> CurrentVersion() const EXCLUDES(mu_);

  const model::TransformerLM& lm_;
  const text::Tokenizer& tokenizer_;
  const ServeOptions options_;
  PrefixCache cache_;
  // ValidateServeOptions() result: written in the constructor before any
  // thread exists, read-only afterwards (safe unguarded).
  util::Status init_status_;
  // Brownout level machine: Tick() confined to the watchdog thread,
  // level() a relaxed atomic read from anywhere (admission, scheduler).
  BrownoutController brownout_;
  // EWMA service rates: written by the scheduler thread, read anywhere
  // through relaxed atomics (feasibility shedding, retry-after hints).
  RateEstimator estimator_;

  // Guards all queue/drain scheduler state below. Promises are resolved and
  // model steps run OUTSIDE it; PrefixCache::mu_ and the metrics registry
  // are never taken under it (DESIGN.md §13).
  mutable util::Mutex mu_;
  util::CondVar work_ready_;
  util::CondVar watchdog_cv_;
  // Tiered per-tenant WDRR admission queues — the passive replacement for
  // the old FIFO deque, guarded by the same lock (DESIGN.md §14).
  AdmissionController admission_ GUARDED_BY(mu_);
  bool shutdown_started_ GUARDED_BY(mu_) = false;
  bool watchdog_stop_ GUARDED_BY(mu_) = false;
  // Adapter version new admissions pin; null serves the base model.
  std::shared_ptr<const AdapterVersion> active_version_ GUARDED_BY(mu_);
  // Read mid-decode for cooperative cancellation without taking mu_.
  std::atomic<bool> shutting_down_{false};
  // Graceful drain: `drain_until_` is written before `draining_` is
  // released, and only read after an acquire load of `draining_`.
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point drain_until_{};
  // Scheduler liveness, read by the watchdog: the heartbeat advances once
  // per decode-loop iteration; inflight_rows_ mirrors the batch size so an
  // idle (legitimately sleeping) scheduler is never declared stalled.
  std::atomic<uint64_t> heartbeat_seq_{0};
  std::atomic<size_t> inflight_rows_{0};
  // Watchdog -> scheduler stall verdict: fail the in-flight batch with
  // kUnavailable and rebuild the decode session, keeping the queue intact.
  // Cleared by the scheduler once recovery completes.
  std::atomic<bool> stall_abort_{false};
  std::thread scheduler_;
  std::thread watchdog_;
};

}  // namespace infuserki::serve

#endif  // INFUSERKI_SERVE_SERVER_H_
