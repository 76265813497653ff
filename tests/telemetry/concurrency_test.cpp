/**
 * @file
 * Concurrent-write correctness for the telemetry layer: many threads
 * publishing to shared registry names at once, racing to create them,
 * timing spans into histograms they own, and claiming trace buffer
 * slots. Exactness is asserted (the registry's mutex loses nothing),
 * and the same tests run under ASan and TSan copies (see
 * CMakeLists.txt) to catch races and lifetime bugs the assertions
 * can't.
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
    // Every thread publishes to one counter name at once.
    Registry reg;
    runThreads([&](unsigned) {
        for (uint64_t i = 0; i < kOpsPerThread; ++i)
            reg.add("shared", 1);
    });
    EXPECT_EQ(reg.counters().at("shared"), uint64_t{kThreads} * kOpsPerThread);
}

TEST(TelemetryConcurrency, HistogramRecordsAreExact)
{
    // Every thread records into a histogram of its own and merges it
    // into one name a batch at a time, while the others do the same.
    Registry reg;
    constexpr uint64_t kBatch = 500;
    runThreads([&](unsigned t) {
        Histogram h;
        for (uint64_t i = 0; i < kOpsPerThread; ++i) {
            h.record(t * kOpsPerThread + i);
            if ((i + 1) % kBatch == 0) {
                reg.merge("shared", h);
                h = Histogram{};
            }
        }
    });
    const Histogram s = reg.histograms().at("shared");
    const uint64_t n = uint64_t{kThreads} * kOpsPerThread;
    EXPECT_EQ(s.count, n);
    EXPECT_EQ(s.sum, n * (n - 1) / 2); // sum of 0..n-1
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.max, n - 1);
    uint64_t bucket_total = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i)
        bucket_total += s.buckets[i];
    EXPECT_EQ(bucket_total, n);
}

TEST(TelemetryConcurrency, RegistryRegistrationRaces)
{
    // All threads race to create overlapping names while publishing;
    // there must be one metric per name and nothing lost.
    Registry reg;
    runThreads([&](unsigned) {
        for (int i = 0; i < 2000; ++i) {
            reg.add("shared", 1);
            reg.add("c" + std::to_string(i % 10), 1);
            Histogram h;
            h.record(static_cast<uint64_t>(i));
            reg.merge("h" + std::to_string(i % 5), h);
        }
    });
    const auto counters = reg.counters();
    EXPECT_EQ(counters.at("shared"), uint64_t{kThreads} * 2000);
    ASSERT_EQ(counters.size(), 11u); // "shared" + c0..c9
    uint64_t named_total = 0;
    for (const auto &[name, value] : counters)
        if (name != "shared")
            named_total += value;
    EXPECT_EQ(named_total, uint64_t{kThreads} * 2000);
    const auto histograms = reg.histograms();
    ASSERT_EQ(histograms.size(), 5u);
    uint64_t hist_total = 0;
    for (const auto &[name, h] : histograms)
        hist_total += h.count;
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
    // Each thread times into a latency histogram of its own.
    TraceBuffer &tb = trace();
    tb.start(1 << 16);
    std::vector<Histogram> lat(kThreads);
    runThreads([&](unsigned t) {
        for (int i = 0; i < 500; ++i)
            Span span("work", "test", &lat[t], "i", i);
    });
    tb.stop();
    Histogram total;
    for (const Histogram &h : lat)
        total.merge(h);
    EXPECT_EQ(total.count, uint64_t{kThreads} * 500);
    EXPECT_EQ(tb.size(), uint64_t{kThreads} * 500);
    EXPECT_EQ(tb.dropped(), 0u);
    tb.clear();
}

} // namespace
} // namespace mimoarch::telemetry
