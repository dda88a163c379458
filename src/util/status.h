#ifndef INFUSERKI_UTIL_STATUS_H_
#define INFUSERKI_UTIL_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>

#include "util/logging.h"

namespace infuserki::util {

/// Canonical error codes, a subset of the absl/gRPC code space that this
/// library actually uses.
enum class StatusCode : int {
  kOk = 0,
  kCancelled = 1,
  kInvalidArgument = 3,
  kDeadlineExceeded = 4,
  kNotFound = 5,
  kAlreadyExists = 6,
  kResourceExhausted = 8,
  kFailedPrecondition = 9,
  kOutOfRange = 11,
  kUnimplemented = 12,
  kInternal = 13,
  kUnavailable = 14,
  kDataLoss = 15,
};

/// Returns a human-readable name for `code`.
const char* StatusCodeName(StatusCode code);

/// Value-semantic error carrier. The library never throws across public API
/// boundaries; fallible operations return Status or StatusOr<T>.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Single-line rendering, e.g. "INVALID_ARGUMENT: bad shape".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Attaches a machine-readable retry hint to `status`, appended to the
/// message as ` [retry_after_s=<seconds>]`. Used by load-shedding paths
/// (kResourceExhausted / kUnavailable) so a client that only sees the
/// Status — not the serving layer's Response struct — still learns how
/// long to back off. Non-positive hints return the status unchanged.
Status WithRetryAfter(Status status, double seconds);

/// Parses a hint attached by WithRetryAfter(); 0.0 when none is present.
double RetryAfterSeconds(const Status& status);

/// Union of a value and an error Status; exactly one is present.
template <typename T>
class StatusOr {
 public:
  /// Implicit from value: mirrors absl::StatusOr ergonomics.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT
  /// Implicit from non-OK status.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace infuserki::util

/// Propagates a non-OK Status to the caller.
#define RETURN_IF_ERROR(expr)                   \
  do {                                          \
    ::infuserki::util::Status _status = (expr); \
    if (!_status.ok()) return _status;          \
  } while (false)

/// Assigns the value of a StatusOr expression or propagates its error.
#define ASSIGN_OR_RETURN(lhs, expr)             \
  ASSIGN_OR_RETURN_IMPL(                        \
      INFUSERKI_STATUS_CONCAT(_status_or_, __LINE__), lhs, expr)

#define ASSIGN_OR_RETURN_IMPL(statusor, lhs, expr) \
  auto statusor = (expr);                          \
  if (!statusor.ok()) return statusor.status();    \
  lhs = std::move(statusor).value()

#define INFUSERKI_STATUS_CONCAT_IMPL(a, b) a##b
#define INFUSERKI_STATUS_CONCAT(a, b) INFUSERKI_STATUS_CONCAT_IMPL(a, b)

#endif  // INFUSERKI_UTIL_STATUS_H_
