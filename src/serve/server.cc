#include "serve/server.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <thread>
#include <utility>

#include "model/generation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/stopwatch.h"

namespace infuserki::serve {
namespace {

using Clock = std::chrono::steady_clock;

struct ServeMetrics {
  obs::Counter* requests;
  obs::Counter* completed;
  obs::Counter* shed;
  obs::Counter* deadline_misses;
  obs::Counter* failures;
  obs::Counter* degraded;
  obs::Counter* retries;
  obs::Counter* prefix_hits;
  obs::Counter* prefix_misses;
  obs::Counter* cancelled;
  obs::Counter* admitted;
  obs::Counter* shed_queue_full;
  obs::Counter* shed_tenant_cap;
  obs::Counter* shed_rate_limited;
  obs::Counter* shed_brownout;
  obs::Counter* shed_infeasible;
  obs::Counter* brownout_transitions;
  obs::Counter* watchdog_stalls;
  obs::Counter* watchdog_recoveries;
  obs::Counter* swap_applied;
  obs::Counter* swap_prefix_invalidations;
  obs::Gauge* swap_active_sequence;
  obs::Gauge* brownout_level;
  obs::Gauge* queue_depth;
  obs::Gauge* queue_depth_max;
  obs::Gauge* batch_size;
  obs::Histogram* batch_occupancy;
  obs::Histogram* queue_wait_seconds;
  obs::Histogram* request_seconds;
  obs::Histogram* tokens_generated;
  obs::Histogram* ttft_seconds;
  obs::Histogram* inter_token_seconds;
  obs::Histogram* e2e_ok_seconds;
  obs::Histogram* e2e_deadline_seconds;
  obs::Histogram* e2e_error_seconds;
  obs::Histogram* queue_depth_samples;
  obs::Histogram* brownout_level_samples;
};

ServeMetrics& Metrics() {
  // Magic-static resolution, relaxed-atomic updates afterwards (the
  // EngineMetrics idiom from batched_session.cc): Submit() callers and the
  // scheduler and watchdog threads publish without the registry lock.
  static ServeMetrics* metrics = [] {
    obs::Registry& registry = obs::Registry::Get();
    return new ServeMetrics{
        registry.GetCounter("serve/requests"),
        registry.GetCounter("serve/completed"),
        registry.GetCounter("serve/shed"),
        registry.GetCounter("serve/deadline_misses"),
        registry.GetCounter("serve/failures"),
        registry.GetCounter("serve/degraded"),
        registry.GetCounter("serve/retries"),
        registry.GetCounter("serve/prefix_hits"),
        registry.GetCounter("serve/prefix_misses"),
        registry.GetCounter("serve/cancelled"),
        registry.GetCounter("serve/admitted"),
        registry.GetCounter("serve/shed_queue_full"),
        registry.GetCounter("serve/shed_tenant_cap"),
        registry.GetCounter("serve/shed_rate_limited"),
        registry.GetCounter("serve/shed_brownout"),
        registry.GetCounter("serve/shed_infeasible"),
        registry.GetCounter("serve/brownout_transitions"),
        registry.GetCounter("serve/watchdog_stalls"),
        registry.GetCounter("serve/watchdog_recoveries"),
        registry.GetCounter("serve/swap_applied"),
        registry.GetCounter("serve/swap_prefix_invalidations"),
        registry.GetGauge("serve/swap_active_sequence"),
        registry.GetGauge("serve/brownout_level"),
        registry.GetGauge("serve/queue_depth"),
        registry.GetGauge("serve/queue_depth_max"),
        registry.GetGauge("serve/batch_size"),
        registry.GetHistogram("serve/batch_occupancy"),
        registry.GetHistogram("serve/queue_wait_seconds"),
        registry.GetHistogram("serve/request_seconds"),
        registry.GetHistogram("serve/tokens_generated"),
        registry.GetHistogram("serve/ttft_seconds"),
        registry.GetHistogram("serve/inter_token_seconds"),
        registry.GetHistogram("serve/e2e_ok_seconds"),
        registry.GetHistogram("serve/e2e_deadline_seconds"),
        registry.GetHistogram("serve/e2e_error_seconds"),
        registry.GetHistogram("serve/queue_depth_samples"),
        registry.GetHistogram("serve/brownout_level_samples")};
  }();
  return *metrics;
}

/// Copies the last row of a [T, V] logits tensor.
std::vector<float> LastRow(const tensor::Tensor& logits) {
  size_t vocab = logits.dim(1);
  const float* row = logits.data() + (logits.dim(0) - 1) * vocab;
  return std::vector<float>(row, row + vocab);
}

/// Maps a tenant id onto the metric-name alphabet (and empty onto
/// "default") so arbitrary client strings cannot mint malformed or
/// colliding-by-accident metric names.
std::string SanitizeTenant(const std::string& tenant) {
  std::string name = tenant.empty() ? "default" : tenant;
  for (char& c : name) {
    bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
              c == '-';
    if (!ok) c = '_';
  }
  return name;
}

struct TenantCounters {
  obs::Counter* admitted;
  obs::Counter* shed;
};

/// Resolves the per-tenant admit/shed counters under the documented
/// `serve/tenant/<tenant>/...` prefix (DESIGN.md §6). Takes the registry
/// lock — callers must resolve BEFORE acquiring the server's mu_ (§13).
TenantCounters TenantCountersFor(const std::string& tenant) {
  obs::Registry& registry = obs::Registry::Get();
  std::string name = SanitizeTenant(tenant);
  return {registry.GetCounter("serve/tenant/" + name + "/admitted"),
          registry.GetCounter("serve/tenant/" + name + "/shed")};
}

/// Pre-tokenization prompt-size estimate for feasibility shedding. The
/// word-level tokenizer emits roughly one id per whitespace-separated word
/// (plus specials), so a split count is accurate enough for an admission
/// estimate without paying (or fault-injecting) real tokenization.
size_t EstimatePromptTokens(const std::string& prompt) {
  size_t tokens = 1;  // slack for special tokens
  bool in_word = false;
  for (char c : prompt) {
    bool space = std::isspace(static_cast<unsigned char>(c)) != 0;
    if (!space && !in_word) ++tokens;
    in_word = !space;
  }
  return tokens;
}

obs::Counter* ShedReasonCounter(ServeMetrics& metrics, ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull:
      return metrics.shed_queue_full;
    case ShedReason::kTenantCap:
      return metrics.shed_tenant_cap;
    case ShedReason::kRateLimited:
      return metrics.shed_rate_limited;
    case ShedReason::kBrownout:
      return metrics.shed_brownout;
    case ShedReason::kDeadlineInfeasible:
      return metrics.shed_infeasible;
    case ShedReason::kNone:
      break;
  }
  return metrics.shed_queue_full;  // unreachable; keeps the switch total
}

/// Response token ids at exact capacity. Clients may keep every Response,
/// so the decode buffer's growth slack would otherwise stay resident per
/// request.
std::vector<int> ExactCopy(const std::vector<int>& ids) {
  return std::vector<int>(ids.begin(), ids.end());
}

}  // namespace

util::Status ValidateServeOptions(const ServeOptions& options) {
  auto invalid = [](std::string msg) {
    return util::Status::InvalidArgument(std::move(msg));
  };
  if (options.max_batch_rows == 0) {
    return invalid("ServeOptions::max_batch_rows must be >= 1");
  }
  if (options.max_batch_tokens == 0) {
    return invalid("ServeOptions::max_batch_tokens must be >= 1");
  }
  if (options.queue_capacity == 0) {
    return invalid(
        "ServeOptions::queue_capacity must be >= 1 (0 would shed every "
        "request)");
  }
  if (options.default_deadline.count() < 0) {
    return invalid("ServeOptions::default_deadline must be >= 0");
  }
  if (options.drain_deadline.count() < 0) {
    return invalid("ServeOptions::drain_deadline must be >= 0");
  }
  if (options.retry.max_attempts < 1) {
    return invalid("ServeOptions::retry.max_attempts must be >= 1");
  }
  if (options.retry.base_delay_ms < 0) {
    return invalid("ServeOptions::retry.base_delay_ms must be >= 0");
  }
  if (options.retry.multiplier < 1.0) {
    return invalid("ServeOptions::retry.multiplier must be >= 1");
  }
  if (options.admission.quantum <= 0.0) {
    return invalid("ServeOptions::admission.quantum must be > 0");
  }
  auto check_policy = [&](const std::string& who,
                          const TenantPolicy& policy) {
    if (policy.weight <= 0.0) {
      return invalid("ServeOptions::admission " + who +
                     ": weight must be > 0");
    }
    if (policy.rate_qps < 0.0) {
      return invalid("ServeOptions::admission " + who +
                     ": rate_qps must be >= 0");
    }
    if (policy.burst < 0.0) {
      return invalid("ServeOptions::admission " + who +
                     ": burst must be >= 0");
    }
    return util::Status::OK();
  };
  RETURN_IF_ERROR(
      check_policy("default_policy", options.admission.default_policy));
  for (const auto& [name, policy] : options.admission.tenants) {
    RETURN_IF_ERROR(check_policy("tenant \"" + name + "\"", policy));
  }
  if (options.brownout.enter_occupancy <= options.brownout.exit_occupancy) {
    return invalid(
        "ServeOptions::brownout hysteresis inverted: enter_occupancy must "
        "exceed exit_occupancy");
  }
  if (options.brownout.enter_ticks < 1 || options.brownout.exit_ticks < 1) {
    return invalid(
        "ServeOptions::brownout enter_ticks/exit_ticks must be >= 1");
  }
  if (options.brownout.clamp_max_new_tokens == 0) {
    return invalid(
        "ServeOptions::brownout.clamp_max_new_tokens must be >= 1");
  }
  if (options.brownout.retry_after_s <= 0.0) {
    return invalid("ServeOptions::brownout.retry_after_s must be > 0");
  }
  if (options.feasibility_margin < 0.0) {
    return invalid("ServeOptions::feasibility_margin must be >= 0");
  }
  if (options.watchdog_interval.count() <= 0) {
    return invalid("ServeOptions::watchdog_interval must be > 0");
  }
  if (options.watchdog_stall_timeout.count() < 0) {
    return invalid("ServeOptions::watchdog_stall_timeout must be >= 0");
  }
  return util::Status::OK();
}

InferenceServer::InferenceServer(const model::TransformerLM& lm,
                                 const text::Tokenizer& tokenizer,
                                 ServeOptions options)
    : lm_(lm),
      tokenizer_(tokenizer),
      options_(std::move(options)),
      cache_(options_.kv_budget_tokens),
      brownout_(options_.brownout),
      admission_(options_.admission, options_.queue_capacity) {
  init_status_ = ValidateServeOptions(options_);
  if (!init_status_.ok()) {
    // Fail fast: no threads. Every Submit() resolves with init_status_
    // and Shutdown() degenerates to a no-op.
    LOG_WARNING << "InferenceServer not started: " << init_status_;
    return;
  }
  scheduler_ = std::thread(&InferenceServer::SchedulerLoop, this);
  watchdog_ = std::thread(&InferenceServer::WatchdogLoop, this);
}

InferenceServer::~InferenceServer() { Shutdown(); }

std::future<Response> InferenceServer::Submit(Request request) {
  ServeMetrics& metrics = Metrics();
  metrics.requests->Increment();
  // Per-tenant counters resolve through the registry lock, which is never
  // taken under mu_ (DESIGN.md §13) — so resolve them up front.
  TenantCounters tenant = TenantCountersFor(request.tenant_id);

  auto job = std::make_unique<Job>();
  std::chrono::milliseconds deadline =
      request.deadline.count() > 0 ? request.deadline
                                   : options_.default_deadline;
  job->enqueued = Clock::now();
  job->trace = obs::RequestTrace::Begin();
  job->response.request_id = job->trace.id();
  if (deadline.count() > 0) job->deadline = job->enqueued + deadline;
  std::future<Response> future = job->promise.get_future();

  // Deadline-infeasibility check (outside the lock — it reads only
  // relaxed-atomic rates): a request whose minimum service-time estimate
  // exceeds `feasibility_margin` times its budget provably cannot finish,
  // so shed it now with the estimate as its retry hint. Zero margin (or a
  // cold estimator, or no deadline) disables the proof.
  double infeasible_estimate_s = 0.0;
  if (options_.feasibility_margin > 0.0 && deadline.count() > 0) {
    double budget_s =
        std::chrono::duration<double>(deadline).count();
    double estimate_s = estimator_.EstimateServiceSeconds(
        EstimatePromptTokens(request.prompt), 1);
    if (estimate_s > budget_s * options_.feasibility_margin) {
      infeasible_estimate_s = estimate_s;
    }
  }
  std::string tenant_id = request.tenant_id;
  Priority priority = request.priority;
  job->request = std::move(request);

  ShedReason reason = ShedReason::kNone;
  double hint_s = 0.0;
  {
    util::MutexLock lock(mu_);
    if (!init_status_.ok()) {
      // Invalid construction: the scheduler never started, so resolve
      // here — a hung future would be strictly worse than a crisp error.
      metrics.failures->Increment();
      job->response.status = init_status_;
      job->trace.Mark("failure");
      job->trace.End("serve/request");
      job->promise.set_value(std::move(job->response));
      return future;
    }
    if (shutdown_started_) {
      metrics.cancelled->Increment();
      job->response.status =
          util::Status::Unavailable("server is shutting down");
      job->trace.Mark("cancelled");
      job->trace.End("serve/request");
      job->promise.set_value(std::move(job->response));
      return future;
    }
    if (infeasible_estimate_s > 0.0) {
      reason = ShedReason::kDeadlineInfeasible;
      hint_s = infeasible_estimate_s;
    } else {
      AdmissionController::Verdict verdict = admission_.Offer(
          tenant_id, priority, job->enqueued, brownout_.level());
      reason = verdict.reason;
      if (reason == ShedReason::kNone) {
        admission_.Push(AdmissionController::Entry{std::move(job),
                                                   tenant_id, priority});
        metrics.queue_depth->Set(static_cast<double>(admission_.size()));
        metrics.queue_depth_max->UpdateMax(
            static_cast<double>(admission_.size()));
      } else {
        hint_s = verdict.retry_after_s;
      }
    }
  }
  if (reason != ShedReason::kNone) {
    // Targeted load shedding: reject now — and tell the client when a
    // retry has a chance. Rate-limit sheds carry the exact bucket refill
    // time; capacity sheds a queue-drain estimate; brownout sheds the
    // level-scaled backoff; infeasible sheds the service-time estimate.
    switch (reason) {
      case ShedReason::kBrownout:
        hint_s = options_.brownout.retry_after_s *
                 static_cast<double>(std::max(1, brownout_.level()));
        break;
      case ShedReason::kQueueFull:
      case ShedReason::kTenantCap: {
        double drain_s = estimator_.request_seconds();
        hint_s = drain_s > 0.0 ? drain_s : 0.05;
        break;
      }
      default:
        break;  // rate-limited / infeasible: hint already set
    }
    hint_s = std::max(hint_s, 0.001);
    metrics.shed->Increment();
    ShedReasonCounter(metrics, reason)->Increment();
    tenant.shed->Increment();
    Response& response = job->response;
    response.retry_after_seconds = hint_s;
    response.status = util::WithRetryAfter(
        util::Status::ResourceExhausted(
            std::string("shed (") + ShedReasonName(reason) + "), tenant " +
            SanitizeTenant(tenant_id)),
        hint_s);
    job->trace.Mark("shed");
    job->trace.End("serve/request");
    job->promise.set_value(std::move(response));
    return future;
  }
  tenant.admitted->Increment();
  metrics.admitted->Increment();
  work_ready_.NotifyOne();
  return future;
}

Response InferenceServer::Run(Request request) {
  return Submit(std::move(request)).get();
}

void InferenceServer::Shutdown() {
  std::vector<AdmissionController::Entry> orphaned;
  {
    util::MutexLock lock(mu_);
    if (!shutdown_started_) {
      shutdown_started_ = true;
      if (options_.drain_deadline.count() > 0) {
        // Graceful drain: leave the queue alone — the scheduler keeps
        // admitting and decoding until queue and batch are empty or the
        // drain deadline passes (HardCancel() latches the hard stop).
        drain_until_ = Clock::now() + options_.drain_deadline;
        draining_.store(true, std::memory_order_release);
      } else {
        shutting_down_.store(true, std::memory_order_relaxed);
        orphaned = admission_.DrainAll();
        Metrics().queue_depth->Set(0.0);
      }
    }
  }
  work_ready_.NotifyAll();
  CancelQueued(std::move(orphaned));
  if (scheduler_.joinable()) scheduler_.join();
  {
    util::MutexLock lock(mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.NotifyAll();
  if (watchdog_.joinable()) watchdog_.join();
}

void InferenceServer::CancelQueued(
    std::vector<AdmissionController::Entry> entries) {
  for (AdmissionController::Entry& entry : entries) {
    Job* job = static_cast<Job*>(entry.item.get());
    Metrics().cancelled->Increment();
    job->response.status =
        util::Status::Unavailable("server shut down before execution");
    job->trace.Mark("cancelled");
    job->trace.End("serve/request");
    job->promise.set_value(std::move(job->response));
  }
}

bool InferenceServer::HardCancel() {
  if (shutting_down_.load(std::memory_order_relaxed)) return true;
  if (draining_.load(std::memory_order_acquire) &&
      Clock::now() >= drain_until_) {
    // Drain budget exhausted: latch the hard stop so every thread (and
    // every subsequent HardCancel check) converges on cancellation.
    shutting_down_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

util::Status InferenceServer::SwapAdapters(AdapterVersion version) {
  std::shared_ptr<const AdapterVersion> next;
  if (version.adapter != nullptr) {
    const model::TransformerConfig& config = lm_.config();
    const model::PositionWiseAdapter& adapter = *version.adapter;
    if (adapter.model_dim() != config.dim) {
      return util::Status::InvalidArgument(
          "adapter model_dim " + std::to_string(adapter.model_dim()) +
          " does not match the model's " + std::to_string(config.dim));
    }
    for (const model::PositionWiseAdapter::LayerWeights& layer :
         adapter.layers()) {
      if (static_cast<size_t>(layer.layer) >= config.num_layers) {
        return util::Status::InvalidArgument(
            "adapter layer " + std::to_string(layer.layer) +
            " is past the model's " + std::to_string(config.num_layers) +
            " layers");
      }
    }
    next = std::make_shared<const AdapterVersion>(std::move(version));
  }
  uint64_t new_sequence = next != nullptr ? next->sequence : 0;
  uint64_t old_sequence = 0;
  {
    util::MutexLock lock(mu_);
    old_sequence = active_version_ != nullptr ? active_version_->sequence : 0;
    active_version_ = std::move(next);
  }
  ServeMetrics& metrics = Metrics();
  metrics.swap_applied->Increment();
  metrics.swap_active_sequence->Set(static_cast<double>(new_sequence));
  // Admissions must see the new generation before the replaced one's
  // prefixes vanish, so a concurrent lookup can never resurrect the old
  // version's K/V pages under the new generation.
  cache_.SetActiveGeneration(new_sequence);
  if (old_sequence != 0 && old_sequence != new_sequence) {
    size_t invalidated = cache_.InvalidateGeneration(old_sequence);
    if (invalidated > 0) {
      metrics.swap_prefix_invalidations->Increment(invalidated);
    }
  }
  return util::Status::OK();
}

uint64_t InferenceServer::active_adapter_sequence() const {
  util::MutexLock lock(mu_);
  return active_version_ != nullptr ? active_version_->sequence : 0;
}

std::shared_ptr<const AdapterVersion> InferenceServer::CurrentVersion()
    const {
  util::MutexLock lock(mu_);
  return active_version_;
}

size_t InferenceServer::queue_depth() const {
  util::MutexLock lock(mu_);
  return admission_.size();
}

void InferenceServer::NoteToken(Job* job) {
  int64_t now_us = obs::NowMicros();
  if (job->generated.size() == 1) {
    job->response.ttft_seconds =
        std::chrono::duration<double>(Clock::now() - job->enqueued).count();
  } else if (job->last_token_us != 0) {
    Metrics().inter_token_seconds->Record(
        static_cast<double>(now_us - job->last_token_us) * 1e-6);
  }
  job->last_token_us = now_us;
}

void InferenceServer::Deliver(Job* job, util::Status status) {
  ServeMetrics& metrics = Metrics();
  Response& response = job->response;
  response.status = std::move(status);
  double processing = job->watch.ElapsedSeconds();
  response.total_seconds = response.queue_seconds + processing;
  metrics.request_seconds->Record(processing);
  if (response.ttft_seconds > 0.0) {
    metrics.ttft_seconds->Record(response.ttft_seconds);
  }
  // Single exit: classify the terminal status into the accounting
  // counters (requests == completed + shed + deadline_misses + cancelled
  // + failures holds at every quiescent point), record the per-outcome
  // latency, close the request's trace track, and resolve the promise.
  switch (response.status.code()) {
    case util::StatusCode::kOk:
      metrics.tokens_generated->Record(
          static_cast<double>(response.tokens.size()));
      metrics.completed->Increment();
      metrics.e2e_ok_seconds->Record(response.total_seconds);
      // Completed processing times feed the queue-drain estimate behind
      // capacity-shed retry hints.
      estimator_.ObserveRequest(processing);
      break;
    case util::StatusCode::kDeadlineExceeded:
      metrics.deadline_misses->Increment();
      metrics.e2e_deadline_seconds->Record(response.total_seconds);
      job->trace.Mark("deadline");
      break;
    case util::StatusCode::kCancelled:
    case util::StatusCode::kUnavailable:
      metrics.cancelled->Increment();
      metrics.e2e_error_seconds->Record(response.total_seconds);
      job->trace.Mark("cancelled");
      break;
    default:
      metrics.failures->Increment();
      metrics.e2e_error_seconds->Record(response.total_seconds);
      job->trace.Mark("failure");
  }
  job->trace.End("serve/request");
  job->promise.set_value(std::move(response));
}

util::Status InferenceServer::RetryStep(
    Job* job, const std::function<util::Status()>& step,
    const std::string& what) {
  // Per-request retry policy: the request deadline is MERGED into any
  // configured server-wide retry deadline (earliest bound wins), so the
  // backoff loop can outlive neither the request it serves nor the
  // server's own policy. A plain assignment here once let a no-deadline
  // request erase the configured bound — hence BoundDeadline.
  util::RetryOptions retry =
      util::BoundDeadline(options_.retry, job->deadline);
  int attempts = 0;
  util::Status status = util::RetryWithBackoff(
      [&] {
        ++attempts;
        return step();
      },
      retry, what);
  if (attempts > 1) {
    Metrics().retries->Increment(static_cast<uint64_t>(attempts - 1));
    job->response.retries += attempts - 1;
    job->trace.Mark("retry:" + what);
  }
  return status;
}

bool InferenceServer::AdmitOne(AdmissionController::Entry entry,
                               model::BatchedDecodeSession* session,
                               std::vector<std::unique_ptr<Job>>* rows,
                               size_t* step_tokens) {
  ServeMetrics& metrics = Metrics();
  // The admission queue stores jobs behind the polymorphic Item base; the
  // server is the only pusher, so the downcast is exact. The entry keeps
  // owning the job until it joins the batch or is deferred.
  Job* j = static_cast<Job*>(entry.item.get());
  // The processing clock restarts on every admission attempt: time spent
  // deferred is queue time.
  j->watch.Reset();
  // Queue-side stats are recorded exactly once per request — on every
  // admission outcome except deferral (a deferred job re-enters admission
  // later and its continued wait still counts as queue time).
  auto note_queue = [&] {
    j->response.queue_seconds =
        std::chrono::duration<double>(Clock::now() - j->enqueued).count();
    metrics.queue_wait_seconds->Record(j->response.queue_seconds);
    j->trace.Phase("queue", j->trace.begin_us(), obs::NowMicros());
  };
  auto finish = [&](util::Status status) {
    note_queue();
    Deliver(j, std::move(status));
    return true;
  };

  if (HardCancel()) {
    return finish(util::Status::Cancelled("server shutting down"));
  }
  if (Expired(*j)) {
    return finish(util::Status::DeadlineExceeded("deadline expired in queue"));
  }

  // Tokenization (and its fault point) runs once per request: a deferred
  // job keeps its ids, so it neither re-fires the fault point nor loses
  // its absorbed retries.
  if (j->prompt_ids.empty()) {
    util::Status tokenize_status = RetryStep(
        j, [] { return FAULT_POINT("serve/tokenize"); }, "serve tokenize");
    if (!tokenize_status.ok()) return finish(std::move(tokenize_status));
    j->prompt_ids = tokenizer_.EncodeWithSpecials(j->request.prompt, false);
  }

  const size_t max_seq = lm_.config().max_seq_len;
  if (j->prompt_ids.size() >= max_seq) {
    return finish(util::Status::InvalidArgument(
        "prompt of " + std::to_string(j->prompt_ids.size()) +
        " tokens leaves no room under max_seq_len " +
        std::to_string(max_seq)));
  }
  size_t max_new = j->request.max_new_tokens > 0
                       ? j->request.max_new_tokens
                       : options_.default_max_new_tokens;
  max_new = std::min(max_new, max_seq - j->prompt_ids.size());
  if (brownout_.level() >= kBrownoutClampLevel && max_new > 0) {
    // Brownout level 1+: clamp the decode budget so each admitted request
    // costs a bounded number of steps (DESIGN.md §14). Applied at
    // admission — an already-admitted row keeps its original budget.
    size_t clamp =
        std::max<size_t>(1, options_.brownout.clamp_max_new_tokens);
    if (max_new > clamp) {
      max_new = clamp;
      j->trace.Mark("brownout_clamp");
    }
  }
  if (max_new == 0) return finish(util::Status::OK());

  // Pin the active adapter version: every token of this request decodes
  // under it, no matter how many swaps land mid-flight (a deferred job
  // re-pins at its eventual admission — "admitted under" means entering
  // the batch, not entering the queue).
  std::shared_ptr<const AdapterVersion> version = CurrentVersion();
  const uint64_t generation = version != nullptr ? version->sequence : 0;

  // Step-token budget: a prefix hit joins the decode wave (1 token this
  // step), a miss must prefill its whole prompt. A prompt that does not
  // fit next to the current batch is deferred — unless the batch is empty,
  // in which case it runs solo (it is < max_seq_len, so it always can).
  // An admitted row's tokens count against the rest of this step.
  // Lookups carry the pinned generation: a prefix prefilled under another
  // adapter version embeds that version's deltas and must never seed this
  // request's slot.
  std::shared_ptr<const PrefixCache::Entry> cached =
      cache_.Lookup(j->prompt_ids, generation);
  size_t need = cached != nullptr ? 1 : j->prompt_ids.size();
  if (!rows->empty() && *step_tokens + need > options_.max_batch_tokens) {
    util::MutexLock lock(mu_);
    admission_.Defer(std::move(entry));
    metrics.queue_depth->Set(static_cast<double>(admission_.size()));
    return false;
  }
  *step_tokens += need;

  note_queue();
  j->version = std::move(version);
  j->response.adapter_sequence = generation;
  j->max_new = max_new;
  if (cached != nullptr) {
    metrics.prefix_hits->Increment();
    j->response.prefix_hit = true;
    j->trace.Mark("prefix_hit");
    j->slot = session->AcquireSlot();
    session->Restore(j->slot, cached->pages);
    j->next_row = cached->last_row;
    j->prefilled = true;
    j->cache_entry = std::move(cached);
  } else {
    metrics.prefix_misses->Increment();
    util::Status prefill_status = RetryStep(
        j, [] { return FAULT_POINT("serve/prefill"); }, "serve prefill");
    // A permanent prefill fault degrades the request rather than failing
    // it; its prompt still prefills in this step.
    if (!prefill_status.ok()) Degrade(j);
    j->slot = session->AcquireSlot();
  }
  j->step_begin_us = obs::NowMicros();
  rows->emplace_back(static_cast<Job*>(entry.item.release()));
  return true;
}

void InferenceServer::Degrade(Job* job) {
  Metrics().degraded->Increment();
  job->response.degraded = true;
  job->response.prefix_hit = false;
  job->trace.Mark("degraded");
  // The delivered stream restarts from scratch, so TTFT and the
  // inter-token clock restart with it.
  job->generated.clear();
  job->response.ttft_seconds = 0.0;
  job->last_token_us = 0;
  job->cache_entry.reset();
  job->prefilled = false;
}

void InferenceServer::SchedulerLoop() {
  tensor::NoGradGuard no_grad;
  ServeMetrics& metrics = Metrics();
  // The decode session lives behind a unique_ptr so watchdog recovery can
  // rebuild it from scratch after a stalled step (DESIGN.md §14).
  auto session = std::make_unique<model::BatchedDecodeSession>(
      lm_, std::max<size_t>(1, options_.max_batch_rows));
  std::vector<std::unique_ptr<Job>> rows;
  const size_t max_seq = lm_.config().max_seq_len;
  const size_t vocab = lm_.config().vocab_size;

  // Parks a retiring row's prompt-boundary pages in the prefix cache.
  // Brownout level 2+ bypasses the write: lookups still serve existing
  // entries, but no new snapshots are taken or inserted under pressure.
  auto park = [&](Job* f) {
    if (f->cache_entry == nullptr) return;
    if (brownout_.level() >= kBrownoutBypassCacheLevel) return;
    if (cache_.Insert(f->cache_entry) > 0) f->trace.Mark("cache_evict");
  };
  auto release = [&](std::unique_ptr<Job>* slot_owner) {
    session->ReleaseSlot((*slot_owner)->slot);
    slot_owner->reset();
  };

  while (true) {
    // Heartbeat: advances once per loop iteration. The watchdog declares a
    // stall when it freezes while rows are in flight or work is queued.
    heartbeat_seq_.fetch_add(1, std::memory_order_relaxed);
    {
      util::MutexLock lock(mu_);
      if (rows.empty()) {
        while (!shutdown_started_ && admission_.empty()) {
          work_ready_.Wait(mu_);
        }
        if (shutdown_started_ && admission_.empty()) {
          // Clean exit: nothing in flight, nothing queued. On a graceful
          // drain this is the zero-cancellation path — every admitted and
          // queued request already delivered.
          inflight_rows_.store(0, std::memory_order_relaxed);
          return;
        }
      }
    }
    if (HardCancel()) {
      // Cancel in-flight rows (their partial streams are dropped — the
      // server is going away), then drain any jobs still queued (e.g. one
      // deferred back after Shutdown() swept the queue).
      for (std::unique_ptr<Job>& job : rows) {
        Deliver(job.get(), util::Status::Cancelled("server shutting down"));
        session->ReleaseSlot(job->slot);
      }
      rows.clear();
      inflight_rows_.store(0, std::memory_order_relaxed);
      std::vector<AdmissionController::Entry> orphaned;
      {
        util::MutexLock lock(mu_);
        orphaned = admission_.DrainAll();
      }
      CancelQueued(std::move(orphaned));
      return;
    }
    if (stall_abort_.load(std::memory_order_relaxed)) {
      // Watchdog verdict: a step stalled (or the loop wedged past the
      // stall timeout). The stuck batch's KV state is unrecoverable — fail
      // every in-flight row with kUnavailable, rebuild the decode session,
      // and keep serving: the admission queue is untouched, so queued work
      // survives the restart (DESIGN.md §14 watchdog contract).
      for (std::unique_ptr<Job>& job : rows) {
        Deliver(job.get(),
                util::Status::Unavailable(
                    "decode step stalled; batch failed by watchdog"));
      }
      rows.clear();
      session = std::make_unique<model::BatchedDecodeSession>(
          lm_, std::max<size_t>(1, options_.max_batch_rows));
      inflight_rows_.store(0, std::memory_order_relaxed);
      stall_abort_.store(false, std::memory_order_relaxed);
      metrics.watchdog_recoveries->Increment();
      continue;
    }

    // --- Admission: fill free slots from the tiered WDRR queues until the
    // step-token budget is spent. A decoding row feeds 1 token; a
    // degraded row waiting to re-prefill feeds its whole prompt. ---------
    size_t step_tokens = 0;
    for (const std::unique_ptr<Job>& f : rows) {
      step_tokens += f->prefilled ? 1 : f->prompt_ids.size();
    }
    while (rows.size() < session->max_rows()) {
      AdmissionController::Entry entry;
      {
        util::MutexLock lock(mu_);
        if (!admission_.PopNext(&entry)) break;
        metrics.queue_depth->Set(static_cast<double>(admission_.size()));
      }
      if (!AdmitOne(std::move(entry), session.get(), &rows, &step_tokens)) {
        break;
      }
    }
    inflight_rows_.store(rows.size(), std::memory_order_relaxed);
    if (rows.empty()) continue;

    // --- Token selection & retirement. Mirrors the sequential decode
    // loop per row; probes only cut a row short, they never change which
    // token is picked, so every stream stays bit-exact. ------------------
    std::vector<model::BatchedDecodeSession::RowInput> inputs;
    std::vector<size_t> input_row;
    for (size_t i = 0; i < rows.size(); ++i) {
      Job& f = *rows[i];
      if (HardCancel()) {
        Deliver(&f, util::Status::Cancelled("server shutting down"));
        release(&rows[i]);
        continue;
      }
      if (Expired(f)) {
        park(&f);
        f.response.tokens = ExactCopy(f.generated);
        Deliver(&f, util::Status::DeadlineExceeded(
                        "deadline expired after " +
                        std::to_string(f.response.tokens.size()) +
                        " tokens"));
        release(&rows[i]);
        continue;
      }
      const model::PositionWiseAdapter* adapter =
          f.version != nullptr ? f.version->adapter.get() : nullptr;
      if (!f.prefilled) {
        // Prompt not yet forwarded: this row's step input is the prefill.
        f.step_begin_us = obs::NowMicros();
        inputs.push_back(model::BatchedDecodeSession::RowInput{
            f.slot, f.prompt_ids, adapter});
        input_row.push_back(i);
        continue;
      }
      int next = model::ArgmaxRow(f.next_row.data(), vocab);
      if (next != text::kEosId) {
        f.generated.push_back(next);
        NoteToken(&f);
        f.trace.Phase("decode_step", f.step_begin_us, f.last_token_us);
        f.step_begin_us = f.last_token_us;
      }
      if (next == text::kEosId || f.generated.size() >= f.max_new ||
          f.prompt_ids.size() + f.generated.size() >= max_seq) {
        park(&f);
        f.response.tokens = ExactCopy(f.generated);
        util::StatusOr<std::string> text =
            tokenizer_.Decode(f.response.tokens);
        if (text.ok()) f.response.text = std::move(*text);
        Deliver(&f, text.status());
        release(&rows[i]);
        continue;
      }
      // A degraded row fires no fault point: it already restarted once.
      util::Status step_status =
          f.response.degraded
              ? util::Status::OK()
              : RetryStep(
                    &f, [] { return FAULT_POINT("serve/decode_step"); },
                    "decode step");
      if (!step_status.ok()) {
        // Permanent mid-decode failure: this row's KV state is suspect, so
        // it restarts from its prompt in a fresh slot and re-prefills next
        // step — the rest of the batch keeps decoding.
        session->ReleaseSlot(f.slot);
        f.slot = session->AcquireSlot();
        Degrade(&f);
        continue;
      }
      inputs.push_back(
          model::BatchedDecodeSession::RowInput{f.slot, {next}, adapter});
      input_row.push_back(i);
    }

    // --- One ragged batched forward for every surviving row. ------------
    if (!inputs.empty()) {
      // Injectable wedge (`serve/decode_stall`): models a decode step that
      // never returns. The simulated stall MUST NOT hold mu_ — a real
      // stuck Step() would not — so Submit() and the watchdog's occupancy
      // reads keep working while the loop is wedged. It spins until the
      // watchdog raises the stall verdict (or shutdown), then re-enters
      // the loop top where recovery fails the batch. Skipping the real
      // Step here never duplicates tokens: stalled rows are terminated,
      // never resumed.
      if (!FAULT_POINT("serve/decode_stall").ok()) {
        while (!stall_abort_.load(std::memory_order_relaxed) &&
               !HardCancel()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        // Sweep rows already retired this iteration before re-entering the
        // loop top, where recovery walks the surviving rows.
        rows.erase(std::remove_if(rows.begin(), rows.end(),
                                  [](const std::unique_ptr<Job>& f) {
                                    return f == nullptr;
                                  }),
                   rows.end());
        continue;
      }
      metrics.batch_size->Set(static_cast<double>(inputs.size()));
      metrics.batch_occupancy->Record(
          static_cast<double>(inputs.size()) /
          static_cast<double>(session->max_rows()));
      size_t prefill_tokens = 0;
      size_t decode_tokens = 0;
      for (size_t j = 0; j < inputs.size(); ++j) {
        if (rows[input_row[j]]->prefilled) {
          ++decode_tokens;
        } else {
          prefill_tokens += inputs[j].tokens.size();
        }
      }
      util::Stopwatch step_watch;
      std::vector<tensor::Tensor> logits = session->Step(inputs);
      estimator_.ObserveStep(prefill_tokens, decode_tokens,
                             step_watch.ElapsedSeconds());
      for (size_t j = 0; j < inputs.size(); ++j) {
        Job& f = *rows[input_row[j]];
        f.next_row = LastRow(logits[j]);
        if (!f.prefilled) {
          f.prefilled = true;
          // Freeze the prompt boundary for the prefix cache before any
          // decode rows are appended to the slot — unless the row is
          // degraded (it bypasses the cache) or a brownout is bypassing
          // cache writes (the snapshot would be dropped anyway).
          if (!f.response.degraded &&
              brownout_.level() < kBrownoutBypassCacheLevel) {
            auto entry = std::make_shared<PrefixCache::Entry>();
            entry->prompt = f.prompt_ids;
            entry->pages = session->Snapshot(f.slot);
            entry->last_row = f.next_row;
            entry->generation = f.response.adapter_sequence;
            f.cache_entry = std::move(entry);
          }
          int64_t now_us = obs::NowMicros();
          f.trace.Phase("prefill", f.step_begin_us, now_us);
          f.step_begin_us = now_us;
        }
      }
    }
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [](const std::unique_ptr<Job>& f) {
                                return f == nullptr;
                              }),
               rows.end());
    inflight_rows_.store(rows.size(), std::memory_order_relaxed);
  }
}

void InferenceServer::WatchdogLoop() {
  ServeMetrics& metrics = Metrics();
  uint64_t last_seq = heartbeat_seq_.load(std::memory_order_relaxed);
  Clock::time_point last_progress = Clock::now();
  int last_level = brownout_.level();
  while (true) {
    size_t depth = 0;
    {
      util::MutexLock lock(mu_);
      if (!watchdog_stop_) {
        watchdog_cv_.WaitFor(mu_, options_.watchdog_interval);
      }
      if (watchdog_stop_) return;
      depth = admission_.size();
    }
    // --- Queue depth and brownout: sample the depth read above, feed
    // queue occupancy through the hysteresis machine and surface the level
    // (gauge for "now", histogram for occupancy-over-time, transitions
    // counter for flap detection). ----------------------------------------
    double occupancy =
        static_cast<double>(depth) /
        static_cast<double>(std::max<size_t>(1, options_.queue_capacity));
    int level = brownout_.Tick(occupancy);
    metrics.queue_depth_samples->Record(static_cast<double>(depth));
    metrics.brownout_level->Set(static_cast<double>(level));
    metrics.brownout_level_samples->Record(static_cast<double>(level));
    if (level != last_level) {
      metrics.brownout_transitions->Increment();
      last_level = level;
    }
    // --- Stall detection: the scheduler heartbeat frozen while work is
    // pending (in-flight rows or queued requests). An idle scheduler
    // legitimately parks on its condvar and is never declared stalled. ----
    if (options_.watchdog_stall_timeout.count() <= 0) continue;
    uint64_t seq = heartbeat_seq_.load(std::memory_order_relaxed);
    bool busy = inflight_rows_.load(std::memory_order_relaxed) > 0 ||
                depth > 0;
    Clock::time_point now = Clock::now();
    if (seq != last_seq || !busy) {
      last_seq = seq;
      last_progress = now;
      continue;
    }
    if (now - last_progress >= options_.watchdog_stall_timeout &&
        !stall_abort_.load(std::memory_order_relaxed)) {
      metrics.watchdog_stalls->Increment();
      // Raise the verdict, then wake the scheduler in case it is parked:
      // the stuck batch is failed and the session rebuilt at its next
      // observation point (a wedge inside a real Step() is only
      // recoverable once Step returns — the documented contract).
      stall_abort_.store(true, std::memory_order_relaxed);
      work_ready_.NotifyAll();
      last_progress = now;  // restart the clock for a subsequent stall
    }
  }
}

}  // namespace infuserki::serve
