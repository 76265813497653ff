/**
 * @file
 * Exporter-format golden tests: renderChromeTrace and renderMetricsJson
 * are pinned byte-for-byte against files in tests/data. Any schema or
 * formatting change — field order, escaping, the microsecond
 * rendering — shows up as a diff here and must be
 * intentional. Regenerate after an intentional change with:
 *
 *     MIMOARCH_UPDATE_GOLDEN=1 ./test_exporter_golden
 *
 * which rewrites the golden files in the source tree.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace mimoarch::telemetry {
namespace {

const char *const kTraceGolden =
    MIMOARCH_TEST_DATA_DIR "/golden_chrome_trace.json";
const char *const kMetricsGolden =
    MIMOARCH_TEST_DATA_DIR "/golden_metrics.json";

/** A fixed event sequence covering every exporter feature: complete
 *  and instant events, args, sub-microsecond timestamps, escaping. */
void
fillTraceBuffer(TraceBuffer &tb)
{
    tb.start(8);
    tb.complete("epoch", "loop", 1500, 250, "epoch", 0);
    tb.complete("epoch", "loop", 1750, 43210987, "epoch", 1);
    tb.instant("fallback", "supervisor", 2000, "tier", 2);
    tb.instant("plain-mark", "cat", 999);
    tb.complete("q\"uote\\slash", "esc\x01"
                                  "cat",
                0, 1);
    // Two drops: capacity 8 is not reached, so record them by hand
    // through overflow — fill the remaining slots then two more.
    tb.instant("fill", "cat", 3000);
    tb.instant("fill", "cat", 3001);
    tb.instant("fill", "cat", 3002);
    tb.instant("dropped", "cat", 3003);
    tb.instant("dropped", "cat", 3004);
    tb.stop();
}

/** The histogram fillRegistry publishes as loop.epoch_ns. */
Histogram
epochNs()
{
    Histogram h;
    h.record(0);
    h.record(1);
    h.record(1000);
    h.record(43210987);
    return h;
}

/** A registry with every metric kind and edge values the formatter
 *  must render stably (zero counter, empty histogram, zero sample). */
void
fillRegistry(Registry &reg)
{
    reg.add("loop.epochs", 1200);
    reg.add("zero.counter", 0);
    reg.merge("loop.epoch_ns", epochNs());
    reg.merge("empty.histogram", Histogram{});
}

std::string
readFile(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
checkGolden(const char *path, const std::string &rendered)
{
    if (std::getenv("MIMOARCH_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "golden rewritten to " << path;
    }
    const std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden " << path
        << " — regenerate with MIMOARCH_UPDATE_GOLDEN=1";
    EXPECT_EQ(rendered, golden) << "exporter output drifted from "
                                << path;
}

TEST(ExporterGolden, ChromeTraceIsByteStable)
{
    TraceBuffer tb;
    fillTraceBuffer(tb);
    checkGolden(kTraceGolden, renderChromeTrace(tb));
}

TEST(ExporterGolden, MetricsJsonIsByteStable)
{
    Registry reg;
    fillRegistry(reg);
    checkGolden(kMetricsGolden, renderMetricsJson(reg));
}

TEST(ExporterGolden, RenderingIsDeterministic)
{
    // Same inputs, fresh objects: identical bytes (no iteration-order
    // or address dependence).
    TraceBuffer ta, tb;
    fillTraceBuffer(ta);
    fillTraceBuffer(tb);
    EXPECT_EQ(renderChromeTrace(ta), renderChromeTrace(tb));

    Registry ra, rb;
    fillRegistry(ra);
    fillRegistry(rb);
    EXPECT_EQ(renderMetricsJson(ra), renderMetricsJson(rb));

    // Publish order must not leak into the output: build one registry
    // in reverse, in several publishes, and compare.
    Registry rc;
    rc.merge("empty.histogram", Histogram{});
    rc.merge("loop.epoch_ns", Histogram{});
    rc.add("zero.counter", 0);
    rc.add("loop.epochs", 200);
    rc.add("loop.epochs", 1000);
    rc.merge("loop.epoch_ns", epochNs());
    EXPECT_EQ(renderMetricsJson(rc), renderMetricsJson(ra));
}

TEST(ExporterGolden, TraceParsesAsBalancedJson)
{
    // A cheap structural check (no JSON library in tree): braces and
    // brackets balance and every quote is closed.
    TraceBuffer tb;
    fillTraceBuffer(tb);
    const std::string out = renderChromeTrace(tb);
    long depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char ch : out) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (in_string) {
            if (ch == '\\')
                escaped = true;
            else if (ch == '"')
                in_string = false;
            continue;
        }
        if (ch == '"')
            in_string = true;
        else if (ch == '{' || ch == '[')
            ++depth;
        else if (ch == '}' || ch == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

} // namespace
} // namespace mimoarch::telemetry
