/**
 * @file
 * Cooperative cancellation for long-running jobs.
 *
 * A CancellationToken is a one-way flag in a tree. Its owner requests
 * cancellation, and the work being canceled polls canceled() at safe
 * points — the EpochDriver checks once per epoch — and unwinds by
 * throwing CanceledError. A token may also have a parent and a
 * steady_clock deadline: it reads canceled once it or an ancestor was
 * canceled or is past its deadline, and expired() tells a token's own
 * deadline apart from a request. The sweep engine builds one such
 * tree per sweep: a root it cancels on a fail-fast abort, and per
 * attempt a stack-local child carrying the --job-timeout deadline. No
 * thread watches the clock; the work's own poll reads it.
 *
 * A poll costs one relaxed load and one pointer test per token on the
 * path to the root, and one clock read per token with a deadline.
 *
 * Cancellation is advisory, never preemptive: a job that ignores its
 * token runs to completion. Everything that matters for determinism is
 * preserved — a canceled attempt writes no results, and a retried
 * attempt re-derives all randomness from the job's seed, so the run
 * that eventually succeeds is bit-identical to one that was never
 * canceled (see src/exec/resilient.hpp).
 */

#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace mimoarch {

/** One-way cancellation flag (not copyable; share by reference). */
class CancellationToken
{
  public:
    using Clock = std::chrono::steady_clock;

    /** A root token: canceled only by requestCancel(). */
    CancellationToken() = default;

    /**
     * A child token: canceled by requestCancel(), by @p parent (which
     * must outlive it; null = none), or once @p deadline has passed.
     */
    explicit CancellationToken(
        const CancellationToken *parent,
        Clock::time_point deadline = Clock::time_point::max())
        : parent_(parent), deadline_(deadline)
    {}

    CancellationToken(const CancellationToken &) = delete;
    CancellationToken &operator=(const CancellationToken &) = delete;

    /** Ask the work owning this token to unwind at its next check. */
    void
    requestCancel()
    {
        canceled_.store(true, std::memory_order_relaxed);
    }

    /** Poll point for the work being canceled: this token or any
     *  ancestor was canceled or is past its deadline. */
    bool
    canceled() const
    {
        for (const CancellationToken *t = this; t != nullptr;
             t = t->parent_) {
            if (t->canceled_.load(std::memory_order_relaxed) ||
                t->expired())
                return true;
        }
        return false;
    }

    /** True once this token's own deadline has passed. */
    bool
    expired() const
    {
        return deadline_ != Clock::time_point::max() &&
               Clock::now() >= deadline_;
    }

  private:
    std::atomic<bool> canceled_{false};
    const CancellationToken *parent_ = nullptr;
    Clock::time_point deadline_ = Clock::time_point::max();
};

/**
 * Thrown by cooperative work (EpochDriver, chaos delays) when its
 * token is canceled. The sweep engine classifies it: under an expired
 * token it is a Timeout failure, otherwise a Canceled one.
 */
class CanceledError : public std::runtime_error
{
  public:
    explicit CanceledError(const std::string &what)
        : std::runtime_error(what)
    {}
};

} // namespace mimoarch
