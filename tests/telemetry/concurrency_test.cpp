/**
 * @file
 * Concurrent-write correctness for the telemetry layer: many threads
 * hammering shared counters, histograms, the registry's registration
 * path, and the trace buffer's slot-claim. Exactness is asserted
 * (relaxed atomics lose nothing), and the same tests run under ASan
 * and TSan copies (see CMakeLists.txt) to catch races and lifetime
 * bugs the assertions can't.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace mimoarch::telemetry {
namespace {

constexpr unsigned kThreads = 8;
constexpr uint64_t kOpsPerThread = 20000;

void
runThreads(const std::function<void(unsigned)> &body)
{
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&body, t] { body(t); });
    for (std::thread &th : threads)
        th.join();
}

TEST(TelemetryConcurrency, CounterAddsAreExact)
{
    Counter c;
    runThreads([&](unsigned) {
        for (uint64_t i = 0; i < kOpsPerThread; ++i)
            c.add(1);
    });
    EXPECT_EQ(c.value(), uint64_t{kThreads} * kOpsPerThread);
}

TEST(TelemetryConcurrency, HistogramRecordsAreExact)
{
    Histogram h;
    runThreads([&](unsigned t) {
        for (uint64_t i = 0; i < kOpsPerThread; ++i)
            h.record(t * kOpsPerThread + i);
    });
    const HistogramSnapshot s = h.snapshot();
    const uint64_t n = uint64_t{kThreads} * kOpsPerThread;
    EXPECT_EQ(s.count, n);
    EXPECT_EQ(s.sum, n * (n - 1) / 2); // sum of 0..n-1
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.max, n - 1);
    uint64_t bucket_total = 0;
    for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i)
        bucket_total += s.buckets[i];
    EXPECT_EQ(bucket_total, n);
}

TEST(TelemetryConcurrency, RegistryRegistrationRaces)
{
    // All threads race to register overlapping names while recording;
    // idempotence must hold (one metric per name, nothing lost).
    Registry reg;
    runThreads([&](unsigned) {
        for (int i = 0; i < 2000; ++i) {
            reg.counter("shared").add(1);
            reg.counter("c" + std::to_string(i % 10)).add(1);
            reg.histogram("h" + std::to_string(i % 5))
                .record(static_cast<uint64_t>(i));
        }
    });
    EXPECT_EQ(reg.counter("shared").value(), uint64_t{kThreads} * 2000);
    const auto counters = reg.counters();
    ASSERT_EQ(counters.size(), 11u); // "shared" + c0..c9
    uint64_t named_total = 0;
    for (const auto &[name, value] : counters)
        if (name != "shared")
            named_total += value;
    EXPECT_EQ(named_total, uint64_t{kThreads} * 2000);
    uint64_t hist_total = 0;
    for (const auto &[name, snap] : reg.histograms())
        hist_total += snap.count;
    EXPECT_EQ(hist_total, uint64_t{kThreads} * 2000);
}

TEST(TelemetryConcurrency, TraceSlotClaimLosesNothing)
{
    TraceBuffer tb;
    const size_t capacity = 4096;
    tb.start(capacity);
    runThreads([&](unsigned t) {
        for (uint64_t i = 0; i < 1000; ++i)
            tb.complete("e", "cat", i, 1, "t",
                        static_cast<int64_t>(t));
    });
    tb.stop();
    const uint64_t recorded = uint64_t{kThreads} * 1000;
    EXPECT_EQ(tb.size() + tb.dropped(), recorded);
    EXPECT_EQ(tb.size(), std::min<uint64_t>(recorded, capacity));
    // Every kept slot was fully written by exactly one thread.
    std::vector<uint64_t> per_thread(kThreads, 0);
    for (size_t i = 0; i < tb.size(); ++i) {
        const TraceEvent &e = tb[i];
        EXPECT_STREQ(e.name, "e");
        ASSERT_GE(e.argValue, 0);
        ASSERT_LT(e.argValue, static_cast<int64_t>(kThreads));
        ++per_thread[static_cast<size_t>(e.argValue)];
    }
    uint64_t total = 0;
    for (uint64_t n : per_thread)
        total += n;
    EXPECT_EQ(total, tb.size());
}

TEST(TelemetryConcurrency, SpansFromManyThreads)
{
    TraceBuffer &tb = trace();
    tb.start(1 << 16);
    Histogram lat;
    runThreads([&](unsigned) {
        for (int i = 0; i < 500; ++i)
            Span span("work", "test", &lat, "i", i);
    });
    tb.stop();
    EXPECT_EQ(lat.snapshot().count, uint64_t{kThreads} * 500);
    EXPECT_EQ(tb.size(), uint64_t{kThreads} * 500);
    EXPECT_EQ(tb.dropped(), 0u);
    tb.clear();
}

} // namespace
} // namespace mimoarch::telemetry
