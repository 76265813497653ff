/**
 * @file
 * The design flow's instrumentation: every identification record is
 * one "sysid.record" complete event whose "record" argument is the
 * record's index, so a --telemetry trace shows the concurrent records
 * and which of them sets the flow's critical path. The tests assert
 * which events appear, never their times.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/design_flow.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

/** Small config so each flow costs well under a second. */
ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 200;
    cfg.validationEpochsPerApp = 100;
    return cfg;
}

/** Record indices of the "sysid.record" events @p flow traces, sorted. */
template <typename Flow>
std::vector<int64_t>
tracedRecords(Flow &&flow)
{
    EXPECT_FALSE(telemetry::trace().enabled());
    telemetry::trace().start(size_t{1} << 12);
    flow();
    telemetry::trace().stop();
    const telemetry::TraceBuffer &buf = telemetry::trace();
    EXPECT_EQ(buf.dropped(), 0u);
    std::vector<int64_t> records;
    for (size_t i = 0; i < buf.size(); ++i) {
        const telemetry::TraceEvent &e = buf[i];
        if (std::strcmp(e.name, "sysid.record") != 0)
            continue;
        EXPECT_EQ(e.type, telemetry::EventType::Complete);
        EXPECT_STREQ(e.category, "design");
        EXPECT_STREQ(e.argKey, "record");
        records.push_back(e.argValue);
    }
    telemetry::trace().clear();
    std::sort(records.begin(), records.end());
    return records;
}

/** 0, 1, ..., n - 1. */
std::vector<int64_t>
indices(size_t n)
{
    std::vector<int64_t> v(n);
    std::iota(v.begin(), v.end(), 0);
    return v;
}

TEST(DesignTrace, DesignTracesItsFourTrainingAndTwoValidationRecords)
{
    const MimoControllerDesign flow(KnobSpace(false), tinyConfig());
    const std::vector<int64_t> records = tracedRecords([&] {
        (void)flow.design(Spec2006Suite::trainingSet(),
                          Spec2006Suite::validationSet());
    });
    EXPECT_EQ(records, indices(6));
}

TEST(DesignTrace, SisoIdentificationTracesTwoChannelsTimesFourApps)
{
    const MimoControllerDesign flow(KnobSpace(false), tinyConfig());
    const std::vector<int64_t> records = tracedRecords(
        [&] { (void)flow.identifySisoModels(Spec2006Suite::trainingSet()); });
    EXPECT_EQ(records, indices(8));
}

} // namespace
} // namespace mimoarch
