/**
 * @file
 * Recoverable errors in the gem5-flavoured error model.
 *
 * fatal()/panic() remain the right tool for unrecoverable user errors
 * and library bugs. Conditions a caller can *handle* — a DARE that does
 * not converge for the current weights (the design loop retries with
 * adjusted weights, Fig. 3) — are reported through Result<T> instead,
 * so the design flow can degrade gracefully rather than abort.
 */

#pragma once

#include <string>
#include <utility>
#include <variant>

#include "common/logging.hpp"

namespace mimoarch {

/** Machine-checkable classes of recoverable failures. */
enum class ErrorCode {
    InvalidArgument,   //!< Caller-supplied shapes/values are unusable.
    DareNotConverged,  //!< No stabilizing DARE solution (LQR side).
    KalmanNotConverged, //!< No stabilizing DARE solution (estimator side).
};

/** A recoverable error: code for dispatch, message for humans. */
struct Error
{
    ErrorCode code = ErrorCode::InvalidArgument;
    std::string message;
};

/** Build an Error from streamable parts. */
template <typename... Args>
Error
makeError(ErrorCode code, Args &&...args)
{
    return Error{code, detail::format(std::forward<Args>(args)...)};
}

/**
 * Value-or-error result. Either holds a T or an Error; accessing the
 * wrong side is a library bug (panic), so callers must check ok().
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : v_(std::move(value)) {}
    Result(Error error) : v_(std::move(error)) {}

    bool ok() const { return std::holds_alternative<T>(v_); }

    T &
    value()
    {
        if (!ok())
            panic("Result::value() on an error: ", error().message);
        return std::get<T>(v_);
    }

    const T &
    value() const
    {
        if (!ok())
            panic("Result::value() on an error: ", error().message);
        return std::get<T>(v_);
    }

    const Error &
    error() const
    {
        if (ok())
            panic("Result::error() on a success");
        return std::get<Error>(v_);
    }

    /** Move the value out (panics on error). */
    T
    take()
    {
        if (!ok())
            panic("Result::take() on an error: ", error().message);
        return std::move(std::get<T>(v_));
    }

  private:
    std::variant<T, Error> v_;
};

/** Result for operations with no payload. */
class [[nodiscard]] Status
{
  public:
    Status() = default;
    Status(Error error) : error_(std::move(error)), failed_(true) {}

    bool ok() const { return !failed_; }

    const Error &
    error() const
    {
        if (ok())
            panic("Status::error() on a success");
        return error_;
    }

  private:
    Error error_{};
    bool failed_ = false;
};

} // namespace mimoarch
