/**
 * @file
 * TraceBuffer and Span behavior: event recording, overflow drops,
 * clear/stop semantics, the Span RAII sinks (trace events and latency
 * histograms), and the trace file writeReports writes.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace mimoarch::telemetry {
namespace {

TEST(TraceBufferTest, RecordsCompleteAndInstantEvents)
{
    TraceBuffer tb;
    EXPECT_FALSE(tb.enabled());
    tb.start(8);
    EXPECT_TRUE(tb.enabled());

    tb.complete("phase", "cat", 1000, 250, "k", 7);
    tb.instant("mark", "cat", 2000);
    tb.stop();
    EXPECT_FALSE(tb.enabled());

    ASSERT_EQ(tb.size(), 2u);
    const TraceEvent &c = tb[0];
    EXPECT_STREQ(c.name, "phase");
    EXPECT_STREQ(c.category, "cat");
    EXPECT_EQ(c.tsNs, 1000u);
    EXPECT_EQ(c.durNs, 250u);
    EXPECT_STREQ(c.argKey, "k");
    EXPECT_EQ(c.argValue, 7);
    EXPECT_EQ(c.type, EventType::Complete);

    const TraceEvent &i = tb[1];
    EXPECT_STREQ(i.name, "mark");
    EXPECT_EQ(i.tsNs, 2000u);
    EXPECT_EQ(i.argKey, nullptr);
    EXPECT_EQ(i.type, EventType::Instant);
}

TEST(TraceBufferTest, DisabledBufferDropsNothingAndRecordsNothing)
{
    TraceBuffer tb;
    tb.instant("ignored", "cat", 1);
    EXPECT_EQ(tb.size(), 0u);
    EXPECT_EQ(tb.dropped(), 0u);
}

TEST(TraceBufferTest, OverflowDropsAndCounts)
{
    TraceBuffer tb;
    tb.start(4);
    for (int i = 0; i < 10; ++i)
        tb.instant("e", "cat", static_cast<uint64_t>(i));
    tb.stop();
    EXPECT_EQ(tb.size(), 4u);
    EXPECT_EQ(tb.dropped(), 6u);
    // The first capacity-many events are the ones kept.
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(tb[i].tsNs, i);
}

TEST(TraceBufferTest, ClearKeepsCapacityAndState)
{
    TraceBuffer tb;
    tb.start(4);
    for (int i = 0; i < 10; ++i)
        tb.instant("e", "cat", 0);
    tb.clear();
    EXPECT_EQ(tb.size(), 0u);
    EXPECT_EQ(tb.dropped(), 0u);
    EXPECT_TRUE(tb.enabled());
    tb.instant("after", "cat", 5);
    ASSERT_EQ(tb.size(), 1u);
    EXPECT_STREQ(tb[0].name, "after");
    tb.stop();
}

TEST(TraceBufferDeathTest, ZeroCapacityStartIsFatal)
{
    TraceBuffer tb;
    EXPECT_EXIT(tb.start(0), testing::ExitedWithCode(1),
                "TraceBuffer");
}

TEST(SpanTest, RecordsLatencyWithoutTracing)
{
    ASSERT_FALSE(trace().enabled());
    Histogram h;
    {
        Span span("work", "test", &h);
    }
    EXPECT_EQ(h.count, 1u);
}

TEST(SpanTest, EmitsTraceEventWhenArmed)
{
    TraceBuffer &tb = trace();
    tb.start(16);
    {
        Span span("stage", "test", nullptr, "idx", 3);
    }
    tb.stop();
    ASSERT_EQ(tb.size(), 1u);
    EXPECT_STREQ(tb[0].name, "stage");
    EXPECT_STREQ(tb[0].category, "test");
    EXPECT_STREQ(tb[0].argKey, "idx");
    EXPECT_EQ(tb[0].argValue, 3);
    EXPECT_EQ(tb[0].type, EventType::Complete);
    tb.clear();
}

TEST(SpanTest, FeedsBothSinksWhenBothActive)
{
    Histogram h;
    TraceBuffer &tb = trace();
    tb.start(16);
    {
        Span span("stage", "test", &h);
    }
    tb.stop();
    EXPECT_EQ(tb.size(), 1u);
    EXPECT_EQ(h.count, 1u);
    // The histogram saw the same duration the trace event carries.
    EXPECT_EQ(h.sum, tb[0].durNs);
    tb.clear();
}

TEST(TelemetryTest, NowNsIsMonotone)
{
    const uint64_t a = nowNs();
    const uint64_t b = nowNs();
    EXPECT_LE(a, b);
}

TEST(TelemetryTest, ThreadIdIsStablePerThread)
{
    const uint32_t a = threadId();
    const uint32_t b = threadId();
    EXPECT_EQ(a, b);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(TraceExport, WrittenFileEqualsRenderedTrace)
{
    // writeReports renders the trace into its file piece by piece; the
    // file must hold exactly the one-string rendering, across many
    // 64 KiB pieces and with names that need escaping.
    TraceBuffer &tb = trace();
    ASSERT_FALSE(tb.enabled());
    tb.clear();
    tb.start(size_t{1} << 14);
    for (int64_t i = 0; i < 10000; ++i) {
        const uint64_t ts = static_cast<uint64_t>(i) * 1237;
        if (i % 3 == 0)
            tb.instant("mark \"q\"", "cat\\x", ts);
        else
            tb.complete("span", "cat", ts, ts / 7 + 1,
                        i % 2 ? "k" : nullptr, -i);
    }
    const std::string path = ::testing::TempDir() + "trace_export_" +
        std::to_string(::getpid()) + ".json";
    const std::string metrics_path =
        path.substr(0, path.size() - 5) + ".metrics.json";
    writeReports(path);
    EXPECT_FALSE(tb.enabled());
    const std::string rendered = renderChromeTrace(tb);
    EXPECT_GT(rendered.size(), size_t{8} << 16);
    EXPECT_EQ(readFile(path), rendered);
    EXPECT_EQ(readFile(metrics_path), renderMetricsJson(registry()));
    std::remove(path.c_str());
    std::remove(metrics_path.c_str());
    tb.clear();
}

} // namespace
} // namespace mimoarch::telemetry
