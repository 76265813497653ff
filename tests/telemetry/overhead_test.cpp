/**
 * @file
 * Overhead-budget guardrails for the telemetry primitives. The real
 * cost is measured by bench/micro_overhead and by loopbench's
 * per-layer trace (core.harness_self_ns); these tests only catch
 * order-of-magnitude regressions (an accidental lock, allocation, or
 * syscall on the record path), so the bounds are deliberately
 * generous — hundreds of times the expected cost — to stay robust on
 * loaded CI machines.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

#include "telemetry/telemetry.hpp"

namespace mimoarch::telemetry {
namespace {

/** Average ns per call of @p op over enough iterations to smooth
 *  scheduler noise. */
template <typename Op>
double
averageNs(Op &&op, int iterations)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    for (int i = 0; i < iterations; ++i)
        op(i);
    const auto t1 = clock::now();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                    t0)
                   .count()) /
        static_cast<double>(iterations);
}

// Expected costs are single-digit to low-double-digit nanoseconds;
// the bound tolerates two orders of magnitude of machine noise.
constexpr double kGenerousNsBound = 2000.0;
constexpr int kIterations = 200000;

TEST(TelemetryOverhead, HistogramRecordIsCheap)
{
    Histogram h;
    const double ns = averageNs(
        [&](int i) { h.record(static_cast<uint64_t>(i)); }, kIterations);
    EXPECT_LT(ns, kGenerousNsBound) << "Histogram::record costs " << ns
                                    << " ns/op";
}

TEST(TelemetryOverhead, DisarmedSpanIsCheap)
{
    // No trace armed, no latency sink: the Span must skip the clock
    // read entirely, so this is the cost instrumented code pays when
    // nobody is listening.
    ASSERT_FALSE(trace().enabled());
    const double ns = averageNs(
        [](int) { Span span("idle", "test"); }, kIterations);
    EXPECT_LT(ns, kGenerousNsBound) << "disarmed Span costs " << ns
                                    << " ns/op";
}

TEST(TelemetryOverhead, ArmedSpanIsCheap)
{
    trace().start(size_t{1} << 19);
    Histogram lat;
    const double ns = averageNs(
        [&](int i) { Span span("work", "test", &lat, "i", i); },
        kIterations);
    trace().stop();
    trace().clear();
    EXPECT_LT(ns, 10.0 * kGenerousNsBound)
        << "armed Span costs " << ns << " ns/op";
    EXPECT_EQ(lat.count, static_cast<uint64_t>(kIterations));
}

} // namespace
} // namespace mimoarch::telemetry
