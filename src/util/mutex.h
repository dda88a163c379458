// Annotated mutex primitives (DESIGN.md §13).
//
// `util::Mutex` / `util::MutexLock` / `util::CondVar` are thin, zero-overhead
// wrappers over std::mutex / std::lock_guard / std::condition_variable whose
// only job is to carry Clang Thread Safety Analysis capabilities
// (util/thread_annotations.h). Everything multithreaded in this repo locks
// through these types; raw std primitives are banned outside this header by
// the `raw-mutex` invariant-linter rule, so the `tsa` preset can prove every
// GUARDED_BY / REQUIRES contract at compile time.
//
// Condition waits are written as explicit loops at the call site —
//   while (!predicate) cv_.Wait(mu_);
// — rather than predicate lambdas, because the analysis treats a lambda body
// as a separate function that does not inherit the caller's held locks.
#ifndef INFUSERKI_UTIL_MUTEX_H_
#define INFUSERKI_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace infuserki::util {

class CondVar;

// A std::mutex that the thread-safety analysis can track as a capability.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock; replaces std::lock_guard / std::unique_lock.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to util::Mutex. All waits REQUIRE the mutex so
// the analysis knows the guarded predicate is read under the lock; the
// wait itself releases and reacquires through std::condition_variable, which
// is invisible to the analysis (the capability is continuously "held" from
// its point of view, matching the caller-observable contract).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  // Returns true if the deadline passed without a notification.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    bool timed_out = cv_.wait_until(lock, deadline) == std::cv_status::timeout;
    lock.release();
    return timed_out;
  }

  // Returns true if `rel_time` elapsed without a notification.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& rel_time)
      REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() + rel_time);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace infuserki::util

#endif  // INFUSERKI_UTIL_MUTEX_H_
