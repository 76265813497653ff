/**
 * @file
 * The concurrency primitive for independent tasks: parallelFor runs a
 * flat list of them (the design flow's identification records, a
 * sweep's jobs, a chip's cores) on short-lived threads that claim task
 * indices from one shared counter. The one other thread in the library
 * is each SimPlant's op producer (RunAheadStream), which must run at
 * the same time as its consumer, so no list of tasks can hold it.
 *
 * There is no queue and no persistent worker. Each call spawns its
 * threads and joins them before it returns, so a task may itself call
 * parallelFor — a sweep job that computes a design does — and never
 * waits on work queued behind it.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace mimoarch {

/** std::thread::hardware_concurrency() with a floor of 1. */
inline unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Run fn(i) once for every i < n on min(n, threads) threads, the
 * caller among them; each thread claims the next index from one atomic
 * counter. One thread therefore runs every index inline on the caller,
 * in index order. @p fn must write only what index i owns; every write
 * is visible to the caller on return. When a thread cannot be spawned
 * (std::system_error), the threads already running share the rest.
 * Once every thread has joined, the lowest-index exception, if any, is
 * rethrown, so which failure surfaces does not depend on the schedule.
 */
template <typename Fn>
void
parallelFor(size_t n, unsigned threads, const Fn &fn)
{
    std::vector<std::exception_ptr> errors(n);
    std::atomic<size_t> next{0};
    const auto work = [&] {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    const size_t count = std::min<size_t>(n, threads);
    std::vector<std::thread> helpers;
    helpers.reserve(count);
    for (size_t t = 1; t < count; ++t) {
        try {
            helpers.emplace_back(work);
        } catch (const std::system_error &) {
            break; // The threads already running share the rest.
        }
    }
    work();
    for (std::thread &t : helpers)
        t.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace mimoarch
