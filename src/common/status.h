#ifndef NDV_COMMON_STATUS_H_
#define NDV_COMMON_STATUS_H_

#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace ndv {

// Typed recoverable errors. The library's contract (common/check.h) is:
// programming errors abort via NDV_CHECK; *recoverable* conditions — bad
// input files, failed remote partitions, exceeded deadlines — are values.
// Status/StatusOr is that value type, adopted across the recoverable-error
// surface (CSV parsing, catalog deserialization, partition merge, the
// distributed ANALYZE coordinator).
//
// Codes follow the usual RPC vocabulary so retry policies can classify
// them. The distributed coordinator treats kUnavailable, kDeadlineExceeded
// and kDataLoss as retryable; everything else is permanent.

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     // caller passed something unusable; do not retry
  kFailedPrecondition,  // system state forbids the call; do not retry
  kNotFound,            // named thing does not exist
  kDataLoss,            // payload failed validation (truncated / corrupt)
  kDeadlineExceeded,    // attempt or coordinator budget ran out
  kUnavailable,         // transient failure; safe to retry
  kInternal,            // invariant broke on the other side
};

constexpr std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

class [[nodiscard]] Status {
 public:
  // Default is OK, so `return {};` means success.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "DATA_LOSS: partition 3 checksum mismatch" — or "OK".
  std::string ToString() const {
    if (ok()) return "OK";
    std::string out(StatusCodeName(code_));
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  static Status Ok() { return Status(); }

  bool operator==(const Status& other) const = default;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// printf-style constructors for each error code, e.g.
//   return InvalidArgumentError("ragged row at line %d", line);
#define NDV_DEFINE_STATUS_FACTORY(Name, Code)                        \
  __attribute__((format(printf, 1, 2))) inline Status Name##Error(   \
      const char* format, ...) {                                     \
    char buffer[512];                                                \
    va_list args;                                                    \
    va_start(args, format);                                          \
    std::vsnprintf(buffer, sizeof(buffer), format, args);            \
    va_end(args);                                                    \
    return Status(StatusCode::Code, buffer);                         \
  }

NDV_DEFINE_STATUS_FACTORY(InvalidArgument, kInvalidArgument)
NDV_DEFINE_STATUS_FACTORY(FailedPrecondition, kFailedPrecondition)
NDV_DEFINE_STATUS_FACTORY(NotFound, kNotFound)
NDV_DEFINE_STATUS_FACTORY(DataLoss, kDataLoss)
NDV_DEFINE_STATUS_FACTORY(DeadlineExceeded, kDeadlineExceeded)
NDV_DEFINE_STATUS_FACTORY(Unavailable, kUnavailable)
NDV_DEFINE_STATUS_FACTORY(Internal, kInternal)

#undef NDV_DEFINE_STATUS_FACTORY

// A value or the error explaining its absence. Accessing the value of a
// failed StatusOr is a programming error (aborts), matching the no-exception
// style: callers must branch on ok() first.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // Intentionally implicit, so `return value;` and `return SomeError(...)`
  // both work from a StatusOr-returning function.
  StatusOr(T value) : value_(std::move(value)) {}
  StatusOr(Status status) : status_(std::move(status)) {
    NDV_CHECK_MSG(!status_.ok(),
                  "StatusOr constructed from OK status without a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & {
    CheckHasValue();
    return *value_;
  }
  const T& value() const& {
    CheckHasValue();
    return *value_;
  }
  T&& value() && {
    CheckHasValue();
    return *std::move(value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void CheckHasValue() const {
    NDV_CHECK_MSG(ok(), "StatusOr::value() on error: %s",
                  status_.ToString().c_str());
  }

  Status status_;
  std::optional<T> value_;
};

// Propagates errors up the stack:
//   NDV_RETURN_IF_ERROR(DoThing());
#define NDV_RETURN_IF_ERROR(expr)                 \
  do {                                            \
    ::ndv::Status ndv_status_ = (expr);           \
    if (!ndv_status_.ok()) return ndv_status_;    \
  } while (false)

}  // namespace ndv

#endif  // NDV_COMMON_STATUS_H_
