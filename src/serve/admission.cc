#include "serve/admission.h"

#include <algorithm>
#include <utility>

namespace infuserki::serve {
namespace {

// WDRR weights below this are clamped up, bounding the rotations one
// PopNext can spend crediting a starved tenant (<= cost / (quantum * min)).
constexpr double kMinWeight = 0.01;
// Deficit cost of dequeuing one request. Cost-per-token WDRR would need
// the prompt tokenized before admission; per-request cost keeps Offer()
// cheap and is fair enough at request granularity (DESIGN.md §14).
constexpr double kRequestCost = 1.0;

}  // namespace

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone:
      return "none";
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kTenantCap:
      return "tenant_cap";
    case ShedReason::kRateLimited:
      return "rate_limited";
    case ShedReason::kBrownout:
      return "brownout";
    case ShedReason::kDeadlineInfeasible:
      return "infeasible";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionOptions options,
                                         size_t queue_capacity)
    : options_(std::move(options)), capacity_(queue_capacity) {}

AdmissionController::~AdmissionController() = default;

std::string AdmissionController::Normalize(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

AdmissionController::TenantState& AdmissionController::StateFor(
    const std::string& tenant) {
  std::string name = Normalize(tenant);
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  TenantState state;
  auto policy = options_.tenants.find(name);
  state.policy = policy != options_.tenants.end() ? policy->second
                                                  : options_.default_policy;
  if (state.policy.burst <= 0.0) {
    state.policy.burst = std::max(1.0, state.policy.rate_qps);
  }
  state.bucket_tokens = state.policy.burst;  // a fresh tenant starts full
  return tenants_.emplace(std::move(name), std::move(state)).first->second;
}

AdmissionController::Verdict AdmissionController::Offer(
    const std::string& tenant, Priority priority,
    std::chrono::steady_clock::time_point now, int brownout_level) {
  if (size_ >= capacity_) return {ShedReason::kQueueFull, 0.0};
  TenantState& state = StateFor(tenant);
  if (state.policy.queue_cap > 0 && state.depth >= state.policy.queue_cap) {
    return {ShedReason::kTenantCap, 0.0};
  }
  if (brownout_level >= kBrownoutRejectLowLevel &&
      priority == Priority::kLow) {
    return {ShedReason::kBrownout, 0.0};
  }
  if (state.policy.rate_qps > 0.0) {
    if (state.bucket_primed) {
      double elapsed =
          std::chrono::duration<double>(now - state.bucket_refill).count();
      if (elapsed > 0.0) {
        state.bucket_tokens =
            std::min(state.policy.burst,
                     state.bucket_tokens + elapsed * state.policy.rate_qps);
      }
    }
    state.bucket_primed = true;
    state.bucket_refill = now;
    if (state.bucket_tokens < 1.0) {
      // Exact refill time until one full token is available — the one
      // shed class where the controller itself knows the best hint.
      double wait = (1.0 - state.bucket_tokens) / state.policy.rate_qps;
      return {ShedReason::kRateLimited, wait};
    }
    state.bucket_tokens -= 1.0;
  }
  return {ShedReason::kNone, 0.0};
}

void AdmissionController::Push(Entry entry) {
  entry.tenant = Normalize(entry.tenant);
  TenantState& state = StateFor(entry.tenant);
  int tier = static_cast<int>(entry.priority);
  if (state.tiers[tier].empty()) rings_[tier].push_back(entry.tenant);
  state.tiers[tier].push_back(std::move(entry));
  ++state.depth;
  ++size_;
}

bool AdmissionController::PopNext(Entry* out) {
  if (!deferred_.empty()) {
    *out = std::move(deferred_.front());
    deferred_.pop_front();
    --StateFor(out->tenant).depth;
    --size_;
    return true;
  }
  for (int tier = 0; tier < kPriorityTiers; ++tier) {
    std::deque<std::string>& ring = rings_[tier];
    // Terminates: every rotation credits the front tenant at least
    // quantum * kMinWeight, so its deficit reaches kRequestCost within a
    // bounded number of visits.
    while (!ring.empty()) {
      TenantState& state = tenants_.at(ring.front());
      if (state.deficit[tier] >= kRequestCost) {
        state.deficit[tier] -= kRequestCost;
        std::deque<Entry>& queue = state.tiers[tier];
        *out = std::move(queue.front());
        queue.pop_front();
        --state.depth;
        --size_;
        if (queue.empty()) {
          state.deficit[tier] = 0.0;  // no banking while inactive
          ring.pop_front();
        }
        return true;
      }
      state.deficit[tier] +=
          options_.quantum * std::max(state.policy.weight, kMinWeight);
      ring.push_back(ring.front());
      ring.pop_front();
    }
  }
  return false;
}

void AdmissionController::Defer(Entry entry) {
  ++StateFor(entry.tenant).depth;
  ++size_;
  deferred_.push_front(std::move(entry));
}

std::vector<AdmissionController::Entry> AdmissionController::DrainAll() {
  std::vector<Entry> drained;
  drained.reserve(size_);
  for (Entry& entry : deferred_) drained.push_back(std::move(entry));
  deferred_.clear();
  for (auto& [name, state] : tenants_) {
    for (auto& tier : state.tiers) {
      for (Entry& entry : tier) drained.push_back(std::move(entry));
      tier.clear();
    }
    state.deficit.fill(0.0);
    state.depth = 0;
  }
  for (auto& ring : rings_) ring.clear();
  size_ = 0;
  return drained;
}

size_t AdmissionController::tenant_depth(const std::string& tenant) const {
  auto it = tenants_.find(Normalize(tenant));
  return it != tenants_.end() ? it->second.depth : 0;
}

BrownoutController::BrownoutController(BrownoutOptions options)
    : options_(std::move(options)) {}

int BrownoutController::Tick(double occupancy) {
  int level = level_.load(std::memory_order_relaxed);
  if (occupancy >= options_.enter_occupancy) {
    below_ = 0;
    if (++above_ >= options_.enter_ticks && level < kBrownoutMaxLevel) {
      ++level;
      above_ = 0;
      level_.store(level, std::memory_order_relaxed);
    }
  } else if (occupancy < options_.exit_occupancy) {
    above_ = 0;
    if (++below_ >= options_.exit_ticks && level > 0) {
      --level;
      below_ = 0;
      level_.store(level, std::memory_order_relaxed);
    }
  } else {
    // Dead band: pressure is neither clearly high nor clearly low. Reset
    // both streaks so the level holds — this is the hysteresis.
    above_ = 0;
    below_ = 0;
  }
  return level;
}

RateEstimator::RateEstimator(double alpha) : alpha_(alpha) {}

void RateEstimator::Blend(std::atomic<double>* cell, double sample) {
  double current = cell->load(std::memory_order_relaxed);
  double next = current <= 0.0 ? sample
                               : (1.0 - alpha_) * current + alpha_ * sample;
  cell->store(next, std::memory_order_relaxed);
}

void RateEstimator::ObserveStep(size_t prefill_tokens, size_t decode_tokens,
                                double seconds) {
  if (seconds <= 0.0 || prefill_tokens + decode_tokens == 0) return;
  if (prefill_tokens == 0) {
    Blend(&decode_rate_, static_cast<double>(decode_tokens) / seconds);
    return;
  }
  double decode_rate = decode_tokens_per_s();
  if (decode_tokens > 0 && decode_rate > 0.0) {
    // Mixed step: subtract the decode rows' estimated share, attribute
    // the residual to the prefill tokens. Floor the residual at the
    // prefill tokens' proportional share so a noisy decode estimate can
    // never produce a negative (or absurdly fast) prefill rate.
    double decode_cost = static_cast<double>(decode_tokens) / decode_rate;
    double total = static_cast<double>(prefill_tokens + decode_tokens);
    double floor_s =
        seconds * static_cast<double>(prefill_tokens) / total * 0.5;
    double prefill_s = std::max(seconds - decode_cost, floor_s);
    Blend(&prefill_rate_,
          static_cast<double>(prefill_tokens) / prefill_s);
  } else {
    Blend(&prefill_rate_,
          static_cast<double>(prefill_tokens + decode_tokens) / seconds);
  }
}

void RateEstimator::ObserveRequest(double seconds) {
  if (seconds <= 0.0) return;
  Blend(&request_seconds_, seconds);
}

void RateEstimator::SeedRates(double prefill_tokens_per_s,
                              double decode_tokens_per_s) {
  prefill_rate_.store(prefill_tokens_per_s, std::memory_order_relaxed);
  decode_rate_.store(decode_tokens_per_s, std::memory_order_relaxed);
}

bool RateEstimator::warmed() const {
  return prefill_tokens_per_s() > 0.0 && decode_tokens_per_s() > 0.0;
}

double RateEstimator::EstimateServiceSeconds(size_t prompt_tokens,
                                             size_t new_tokens) const {
  if (!warmed()) return 0.0;
  return static_cast<double>(prompt_tokens) / prefill_tokens_per_s() +
         static_cast<double>(new_tokens) / decode_tokens_per_s();
}

}  // namespace infuserki::serve
