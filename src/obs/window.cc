#include "obs/window.h"

#include <algorithm>

#include "obs/trace.h"

namespace infuserki::obs {

SlidingWindow::SlidingWindow(double window_seconds, size_t max_frames)
    : window_seconds_(window_seconds > 0.0 ? window_seconds : 1.0),
      max_frames_(std::max<size_t>(2, max_frames)) {}

void SlidingWindow::Tick(int64_t now_us) {
  Frame frame;
  frame.t_us = now_us >= 0 ? now_us : NowMicros();
  frame.snapshot = Registry::Get().TakeSnapshot();

  util::MutexLock lock(mu_);
  frames_.push_back(std::move(frame));
  int64_t horizon =
      frames_.back().t_us - static_cast<int64_t>(window_seconds_ * 1e6);
  // Drop frames that have aged out, but keep one frame at-or-before the
  // horizon as the baseline so the delta always spans >= the window.
  while (frames_.size() > 2 && frames_[1].t_us <= horizon) {
    frames_.pop_front();
  }
  while (frames_.size() > max_frames_) frames_.pop_front();
}

bool SlidingWindow::BoundsLocked(const Frame** baseline,
                                 const Frame** newest) const {
  if (frames_.size() < 2) return false;
  *baseline = &frames_.front();
  *newest = &frames_.back();
  return true;
}

double SlidingWindow::CoveredSeconds() const {
  util::MutexLock lock(mu_);
  const Frame* baseline;
  const Frame* newest;
  if (!BoundsLocked(&baseline, &newest)) return 0.0;
  return static_cast<double>(newest->t_us - baseline->t_us) * 1e-6;
}

uint64_t SlidingWindow::CounterDelta(const std::string& name) const {
  util::MutexLock lock(mu_);
  const Frame* baseline;
  const Frame* newest;
  if (!BoundsLocked(&baseline, &newest)) return 0;
  return Registry::CounterDelta(baseline->snapshot, newest->snapshot, name);
}

double SlidingWindow::CounterRate(const std::string& name) const {
  util::MutexLock lock(mu_);
  const Frame* baseline;
  const Frame* newest;
  if (!BoundsLocked(&baseline, &newest)) return 0.0;
  double seconds = static_cast<double>(newest->t_us - baseline->t_us) * 1e-6;
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(Registry::CounterDelta(
             baseline->snapshot, newest->snapshot, name)) /
         seconds;
}

double SlidingWindow::GaugeValue(const std::string& name) const {
  util::MutexLock lock(mu_);
  if (frames_.empty()) return 0.0;
  const auto& gauges = frames_.back().snapshot.gauges;
  auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

HistogramStats SlidingWindow::HistogramDelta(const std::string& name) const {
  util::MutexLock lock(mu_);
  const Frame* baseline;
  const Frame* newest;
  if (!BoundsLocked(&baseline, &newest)) return HistogramStats{};
  return Registry::HistogramDelta(baseline->snapshot, newest->snapshot, name);
}

std::map<std::string, double> SlidingWindow::AllCounterRates() const {
  std::map<std::string, double> rates;
  util::MutexLock lock(mu_);
  const Frame* baseline;
  const Frame* newest;
  if (!BoundsLocked(&baseline, &newest)) return rates;
  double seconds = static_cast<double>(newest->t_us - baseline->t_us) * 1e-6;
  if (seconds <= 0.0) return rates;
  for (const auto& counter : newest->snapshot.counters) {
    rates[counter.first] = static_cast<double>(Registry::CounterDelta(
                               baseline->snapshot, newest->snapshot,
                               counter.first)) /
                           seconds;
  }
  return rates;
}

size_t SlidingWindow::frame_count() const {
  util::MutexLock lock(mu_);
  return frames_.size();
}

}  // namespace infuserki::obs
