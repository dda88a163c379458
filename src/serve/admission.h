#ifndef INFUSERKI_SERVE_ADMISSION_H_
#define INFUSERKI_SERVE_ADMISSION_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace infuserki::serve {

/// Priority tier of a request. Tiers are served in strict priority order:
/// a queued kHigh request is always admitted before any queued kNormal
/// request, regardless of tenant weights (which only arbitrate *within* a
/// tier). kLow is the first tier rejected under brownout (DESIGN.md §14).
enum class Priority : int {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};
inline constexpr int kPriorityTiers = 3;

/// Per-tenant admission policy. The defaults are permissive: weight 1 (an
/// equal WDRR share), no per-tenant queue cap, no rate limit.
struct TenantPolicy {
  /// Weighted deficit-round-robin share within a priority tier. A tenant
  /// with weight 3 drains three queued requests for every one of a
  /// weight-1 tenant when both are backlogged. Clamped to >= 0.01.
  double weight = 1.0;
  /// Max requests this tenant may have queued (across all tiers,
  /// including a deferred entry). 0 means bounded only by the global
  /// queue capacity. Overflow sheds *this tenant's* request — the
  /// offender pays, not the queue at large.
  size_t queue_cap = 0;
  /// Token-bucket refill rate, requests/second. 0 means unlimited.
  double rate_qps = 0.0;
  /// Token-bucket depth (burst allowance). <= 0 defaults to
  /// max(1, rate_qps).
  double burst = 0.0;
};

/// Configuration for the AdmissionController: per-tenant policies plus the
/// WDRR quantum. The global queue capacity stays on ServeOptions (it is a
/// server-wide resource bound, not a tenant policy).
struct AdmissionOptions {
  /// Policy applied to tenants with no entry in `tenants` (including the
  /// anonymous "" tenant, bucketed as "default").
  TenantPolicy default_policy;
  /// Per-tenant policy overrides, keyed by Request::tenant_id.
  std::map<std::string, TenantPolicy> tenants;
  /// Deficit credit added per WDRR visit per unit weight. Larger values
  /// make scheduling burstier per tenant; 1.0 alternates at request
  /// granularity.
  double quantum = 1.0;
};

/// Why an offered request was shed (kNone = admitted). Each reason maps to
/// a dedicated `serve/shed_*` counter (DESIGN.md §14) so operators can
/// tell a full queue from a misbehaving tenant from a brownout.
enum class ShedReason {
  kNone = 0,
  kQueueFull,
  kTenantCap,
  kRateLimited,
  kBrownout,
  kDeadlineInfeasible,
};

/// Metric-suffix name for a shed reason ("queue_full", "tenant_cap", ...).
const char* ShedReasonName(ShedReason reason);

/// Multi-tenant admission queue: strict priority across tiers, weighted
/// deficit round robin across tenants within a tier, per-tenant queue caps
/// and token-bucket rate limits so shedding targets the offender.
///
/// PASSIVE data structure: it has no lock of its own. The owning
/// InferenceServer guards every call with its scheduler mutex, exactly as
/// it guarded the FIFO deque this class replaces (DESIGN.md §13 —
/// `InferenceServer::mu_`). Keeping the controller lock-free keeps the
/// lock hierarchy flat and makes it directly unit-testable.
///
/// Time is always passed in explicitly (token-bucket refill), so tests are
/// deterministic without sleeping.
class AdmissionController {
 public:
  /// Base class for queued payloads. The server's Job derives from this;
  /// tests use their own trivial subclass.
  struct Item {
    virtual ~Item() = default;
  };

  /// One queued request: the payload plus the (tenant, tier) key the
  /// scheduler bookkeeping needs after popping it.
  struct Entry {
    std::unique_ptr<Item> item;
    std::string tenant;
    Priority priority = Priority::kNormal;
  };

  /// Admission decision. `retry_after_s` is a client backoff hint,
  /// populated (> 0) for rate-limit sheds — the exact bucket refill time;
  /// the server fills in estimator-based hints for the other reasons.
  struct Verdict {
    ShedReason reason = ShedReason::kNone;
    double retry_after_s = 0.0;
  };

  /// `queue_capacity` bounds the total queued entries across all tenants
  /// and tiers (the ServeOptions::queue_capacity bound).
  AdmissionController(AdmissionOptions options, size_t queue_capacity);
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admission decision for one offered request, in shed-precedence order:
  /// global queue capacity, per-tenant cap, brownout tier rejection
  /// (level >= kBrownoutRejectLowLevel sheds Priority::kLow), then the
  /// token bucket (checked last so a shed request never burns a token).
  /// Does NOT enqueue — call Push() on an admitting verdict.
  Verdict Offer(const std::string& tenant, Priority priority,
                std::chrono::steady_clock::time_point now,
                int brownout_level);

  /// Enqueues an entry previously admitted by Offer().
  void Push(Entry entry);

  /// Dequeues the next entry to admit: a deferred entry first, else
  /// strict-priority tiers arbitrated by WDRR. Returns false when empty.
  bool PopNext(Entry* out);

  /// Returns a popped entry the scheduler could not admit (step-budget
  /// deferral): the very next PopNext() returns it again, ahead of
  /// everything else, preserving the FIFO-deferral contract of the old
  /// queue. The WDRR deficit already charged for it stands — the tenant
  /// does get served, just one scheduler iteration later.
  void Defer(Entry entry);

  /// Removes and returns every queued entry (shutdown orphan drain).
  std::vector<Entry> DrainAll();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  /// Queued entries for one tenant (across tiers, including deferred).
  size_t tenant_depth(const std::string& tenant) const;

 private:
  struct TenantState {
    TenantPolicy policy;
    std::array<std::deque<Entry>, kPriorityTiers> tiers;
    // WDRR credit per tier; reset when the tenant's tier queue drains so
    // an idle tenant cannot bank an unbounded burst allowance.
    std::array<double, kPriorityTiers> deficit{};
    double bucket_tokens = 0.0;
    bool bucket_primed = false;
    std::chrono::steady_clock::time_point bucket_refill{};
    size_t depth = 0;
  };

  /// Canonical bucket name for a tenant id ("" -> "default").
  static std::string Normalize(const std::string& tenant);
  TenantState& StateFor(const std::string& tenant);

  const AdmissionOptions options_;
  const size_t capacity_;
  size_t size_ = 0;
  std::map<std::string, TenantState> tenants_;
  // Round-robin ring per tier: tenant names with a nonempty queue in that
  // tier, maintained eagerly (inserted on first push, erased on drain).
  std::array<std::deque<std::string>, kPriorityTiers> rings_;
  std::deque<Entry> deferred_;
};

/// Brownout degradation levels (DESIGN.md §14). Each level is cumulative:
/// level N applies every measure of the levels below it.
///   kBrownoutClampLevel       (1) clamp max_new_tokens to the configured
///                                 brownout ceiling
///   kBrownoutBypassCacheLevel (2) stop writing PrefixCache entries
///                                 (lookups still hit; no snapshot cost)
///   kBrownoutRejectLowLevel   (3) shed Priority::kLow at admission
inline constexpr int kBrownoutClampLevel = 1;
inline constexpr int kBrownoutBypassCacheLevel = 2;
inline constexpr int kBrownoutRejectLowLevel = 3;
inline constexpr int kBrownoutMaxLevel = 3;

/// Hysteresis thresholds for the brownout controller.
struct BrownoutOptions {
  /// Queue occupancy (size / capacity) at or above which a tick counts
  /// toward escalation.
  double enter_occupancy = 0.75;
  /// Occupancy strictly below which a tick counts toward de-escalation.
  /// Must be < enter_occupancy; the dead band between them is the
  /// hysteresis that prevents level flapping.
  double exit_occupancy = 0.25;
  /// Consecutive over-threshold ticks required to step one level up.
  int enter_ticks = 3;
  /// Consecutive under-threshold ticks required to step one level down.
  int exit_ticks = 5;
  /// max_new_tokens ceiling applied from kBrownoutClampLevel on.
  size_t clamp_max_new_tokens = 8;
  /// Base client backoff hint for brownout sheds, scaled by the level.
  double retry_after_s = 0.25;
};

/// Steps the brownout level up under sustained queue pressure and back
/// down with hysteresis. Tick() is called by exactly one thread (the
/// server's watchdog, once per watchdog interval); level() is a relaxed
/// atomic read from any thread (admission, scheduler, metrics).
class BrownoutController {
 public:
  explicit BrownoutController(BrownoutOptions options);

  /// Feeds one occupancy observation in [0, 1]; returns the (possibly
  /// changed) level. Escalates one level after `enter_ticks` consecutive
  /// observations >= enter_occupancy; de-escalates one level after
  /// `exit_ticks` consecutive observations < exit_occupancy; observations
  /// in the dead band reset both streaks. Single-caller (watchdog thread).
  int Tick(double occupancy);

  int level() const { return level_.load(std::memory_order_relaxed); }

 private:
  const BrownoutOptions options_;
  std::atomic<int> level_{0};
  // Streak counters, touched only by the ticking thread.
  int above_ = 0;
  int below_ = 0;
};

/// EWMA estimate of observed serving rates, used for deadline-infeasible
/// early rejection and retry-after hints (DESIGN.md §14). Written by the
/// scheduler thread (ObserveStep after each batched forward, and
/// ObserveRequest at delivery); read by any thread through relaxed
/// atomics — the estimate is advisory, never load-bearing for memory
/// ordering.
class RateEstimator {
 public:
  explicit RateEstimator(double alpha = 0.2);

  /// Records one batched step: `prefill_tokens` prompt tokens forwarded,
  /// `decode_tokens` single-token decode rows, over `seconds` of wall
  /// time. Pure-decode steps feed the decode rate; steps containing
  /// prefill attribute the residual (after subtracting the estimated
  /// decode cost) to the prefill rate.
  void ObserveStep(size_t prefill_tokens, size_t decode_tokens,
                   double seconds);

  /// Records one completed request's processing time (queue wait
  /// excluded) — the drain-estimate input for queue-full retry hints.
  void ObserveRequest(double seconds);

  /// Pre-loads both token rates (tokens/second), e.g. warm-starting a new
  /// server from a previous run's observations, or pinning known rates in
  /// tests. Subsequent observations blend the seed away.
  void SeedRates(double prefill_tokens_per_s, double decode_tokens_per_s);

  double prefill_tokens_per_s() const {
    return prefill_rate_.load(std::memory_order_relaxed);
  }
  double decode_tokens_per_s() const {
    return decode_rate_.load(std::memory_order_relaxed);
  }
  double request_seconds() const {
    return request_seconds_.load(std::memory_order_relaxed);
  }

  /// True once both token rates have been observed (or seeded).
  bool warmed() const;

  /// Minimum service-time estimate for a request: prefill of
  /// `prompt_tokens` plus `new_tokens` decode steps, at the current rates.
  /// Returns 0 while not warmed (no basis for a proof).
  double EstimateServiceSeconds(size_t prompt_tokens,
                                size_t new_tokens) const;

 private:
  void Blend(std::atomic<double>* cell, double sample);

  const double alpha_;
  std::atomic<double> prefill_rate_{0.0};
  std::atomic<double> decode_rate_{0.0};
  std::atomic<double> request_seconds_{0.0};
};

}  // namespace infuserki::serve

#endif  // INFUSERKI_SERVE_ADMISSION_H_
