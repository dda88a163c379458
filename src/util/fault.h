#ifndef INFUSERKI_UTIL_FAULT_H_
#define INFUSERKI_UTIL_FAULT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace infuserki::util {

/// Exit code used by crash-mode failpoints, so harnesses (tests,
/// scripts/check_build.sh) can tell an injected crash from a real one.
constexpr int kFaultCrashExitCode = 42;

/// Deterministic, programmable failpoints for exercising the durability
/// layer. Production code threads named points through its fragile paths:
///
///   RETURN_IF_ERROR(FAULT_POINT("ckpt/write"));
///
/// With nothing configured a point is a cheap no-op returning OK. Faults are
/// armed programmatically via Configure() or through the INFUSERKI_FAULTS
/// environment variable (read once, at first use), with a `;`-separated
/// spec of `point=mode` entries:
///
///   fail@N      fail the Nth hit of the point (1-based), that hit only —
///               models a transient I/O error (cleared by a retry)
///   fail@N+     fail every hit from the Nth on — a permanent failure
///   prob:P:S    fail each hit with probability P, from a deterministic
///               stream seeded with S (default seed 0)
///   crash@N     terminate the process (exit kFaultCrashExitCode) on the
///               Nth hit — models a hard crash / preemption
///   off         remove any fault armed on the point
///
/// Example: INFUSERKI_FAULTS="trainer/step=crash@60;ckpt/write=fail@1"
///
/// Injected failures carry StatusCode::kInternal (the transient class the
/// retry helpers act on). All bookkeeping is mutex-guarded; failpoints live
/// on I/O and per-step paths, never per-element hot loops.
class FaultRegistry {
 public:
  static FaultRegistry& Get();

  /// Parses and arms a fault spec (see class comment). Returns
  /// kInvalidArgument on a malformed spec, leaving valid entries armed.
  Status Configure(const std::string& spec) EXCLUDES(mu_);

  /// Disarms everything and resets hit counters.
  void Clear() EXCLUDES(mu_);

  /// Registers one hit of `point`. Returns OK, an injected kInternal error,
  /// or does not return at all (crash mode).
  Status Hit(const std::string& point) EXCLUDES(mu_);

  /// Number of times `point` was hit since the last Clear(). Counted only
  /// while a fault (of any mode) is armed on the point.
  uint64_t hits(const std::string& point) const EXCLUDES(mu_);

  /// True when any failpoint is armed — lets per-step call sites skip the
  /// lock entirely in production.
  bool active() const { return active_.load(std::memory_order_relaxed); }

 private:
  FaultRegistry();

  enum class Mode { kFailNth, kFailFrom, kProbabilistic, kCrashNth };
  struct Point {
    Mode mode = Mode::kFailNth;
    uint64_t n = 1;
    double probability = 0.0;
    std::mt19937_64 stream;
    uint64_t hit_count = 0;
  };

  mutable Mutex mu_;
  std::map<std::string, Point> points_ GUARDED_BY(mu_);
  std::atomic<bool> active_{false};  // lock-free armed? fast path
};

/// Options for RetryWithBackoff. Delays are `base_delay_ms * multiplier^k`
/// before retry k (k = 0 for the first retry).
struct RetryOptions {
  int max_attempts = 3;
  int base_delay_ms = 5;
  double multiplier = 2.0;
  /// Overall deadline for the whole retry loop: once the deadline has
  /// passed — or the next backoff sleep would overshoot it — no further
  /// attempt is made and the last status is returned immediately. The
  /// serving layer threads each request's deadline through here so retries
  /// can never outlive the request they serve. The default (epoch) means
  /// unbounded; the first attempt always runs, deadline or not.
  std::chrono::steady_clock::time_point deadline{};
};

/// Runs `fn` until it returns OK or a permanent error, retrying transient
/// failures (StatusCode::kInternal — the class real I/O errors and injected
/// faults use) with exponential backoff, bounded by `options.deadline` when
/// set. Returns the last status.
Status RetryWithBackoff(const std::function<Status()>& fn,
                        const RetryOptions& options = {},
                        const std::string& what = "");

/// Returns `options` with its overall deadline tightened to `deadline`:
/// the result carries the EARLIER of the two bounds, where the epoch
/// default means "unbounded" on either side. Callers layering a
/// per-request deadline over a configured policy must use this instead of
/// assigning `options.deadline` directly — a plain assignment from a
/// no-deadline request would silently erase the configured bound and let
/// the backoff loop sleep past it.
RetryOptions BoundDeadline(RetryOptions options,
                           std::chrono::steady_clock::time_point deadline);

}  // namespace infuserki::util

/// Expression form of a failpoint hit; wrap in RETURN_IF_ERROR (or inspect
/// the Status) at the call site.
#define FAULT_POINT(point) (::infuserki::util::FaultRegistry::Get().Hit(point))

#endif  // INFUSERKI_UTIL_FAULT_H_
