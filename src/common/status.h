#ifndef CRH_COMMON_STATUS_H_
#define CRH_COMMON_STATUS_H_

/// \file status.h
/// Lightweight error-handling primitives used across the CRH library.
///
/// The public API never throws across module boundaries; fallible
/// operations return a Status (or Result<T> for value-producing calls),
/// in the style of Arrow / RocksDB.

#include <optional>
#include <string>
#include <utility>

namespace crh {

/// Machine-readable error category attached to a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kIOError,
  kNotImplemented,
  kInternal,
};

/// Returns a short human-readable name for a StatusCode ("InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// Outcome of a fallible operation: either OK or a code plus message.
///
/// Status is cheap to copy in the OK case (no allocation) and carries an
/// explanatory message otherwise. Use the factory helpers:
///
///   if (n < 0) return Status::InvalidArgument("n must be non-negative");
///
/// The class itself is [[nodiscard]]: any call returning a Status whose
/// result is ignored fails to compile under -Werror (GCC and Clang both
/// warn on a discarded nodiscard class type). A deliberate drop must be
/// spelled `(void)`; scripts/crh_analyzer.py's status-path check flags any
/// other dropped Status and any `(void)` cast of a Result.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory for an OK status.
  [[nodiscard]] static Status OK() { return Status(); }
  /// The caller passed an argument that violates the API contract.
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  /// An index or value fell outside its permitted range.
  [[nodiscard]] static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  /// A named object (property, source, ...) does not exist.
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  /// A named object already exists where a new one was to be created.
  [[nodiscard]] static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  /// The object is not in a state that permits the operation.
  [[nodiscard]] static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  /// A file or stream operation failed.
  [[nodiscard]] static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  /// The operation is not implemented for this configuration.
  [[nodiscard]] static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  /// An invariant inside the library was violated (a bug).
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  /// True iff the status is OK.
  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  /// The status code.
  [[nodiscard]] StatusCode code() const { return code_; }
  /// The error message (empty for OK).
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value-or-error sum type: holds T on success, a non-OK Status on failure.
///
///   Result<Dataset> r = LoadCsv(path);
///   if (!r.ok()) return r.status();
///   Dataset d = std::move(r).ValueOrDie();
///
/// [[nodiscard]] like Status: a discarded Result is a discarded error
/// *and* a discarded value, so it never compiles silently.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a successful result holding \p value.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Constructs a failed result from a non-OK status.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  /// True iff a value is present.
  [[nodiscard]] bool ok() const { return value_.has_value(); }
  /// The status: OK when a value is present.
  const Status& status() const { return status_; }

  /// The contained value; must only be called when ok().
  const T& ValueOrDie() const& { return *value_; }
  /// Moves the contained value out; must only be called when ok().
  T ValueOrDie() && { return std::move(*value_); }
  /// Alias for ValueOrDie for parity with Arrow naming.
  const T& operator*() const& { return *value_; }
  T operator*() && { return std::move(*value_); }
  const T* operator->() const { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_ = Status::OK();
};

/// Propagates a non-OK Status to the caller.
#define CRH_RETURN_NOT_OK(expr)             \
  do {                                      \
    ::crh::Status _st = (expr);             \
    if (!_st.ok()) return _st;              \
  } while (false)

}  // namespace crh

#endif  // CRH_COMMON_STATUS_H_
