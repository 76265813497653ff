/**
 * @file
 * Telemetry peak-RSS guard: arming the trace buffer for a multi-app
 * sweep must not balloon resident memory. The sweep is armed the way
 * every bench arms it — SweepOptions::telemetry names an output path,
 * so the SweepRunner reserves its fixed trace capacity and writes the
 * reports at destruction — and its peak RSS must stay within 2x the
 * disarmed sweep's. The buffer reserves its slots without writing
 * them, so resident memory follows the events actually recorded, not
 * the capacity.
 *
 * Peak RSS is VmHWM from /proc/self/status: this process's own
 * high-water mark. getrusage()'s ru_maxrss is carried across exec(),
 * so under a larger parent it reads the parent's peak in every phase
 * and the ratio could not fail.
 *
 * Ordering is load-bearing: the high-water mark is monotonic over a
 * process's life, so the disarmed sweep MUST run first — if the armed
 * sweep ran first, its peak would be charged to the disarmed
 * measurement too and the ratio would be vacuously 1.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

#include "core/controllers.hpp"
#include "core/harness.hpp"
#include "exec/sweep.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

/** This process's peak resident set (VmHWM) in MB; 0 if unreadable. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

/** One serial 6-app sweep of fixed-knob runs, @p epochs each; a
 *  non-empty @p telemetry arms the trace as a bench's --telemetry. */
void
runSixAppSweep(size_t epochs, const std::string &telemetry)
{
    const std::vector<std::string> apps = {"perlbench", "bzip2",
                                           "gcc",       "mcf",
                                           "milc",      "namd"};
    exec::SweepOptions opt;
    opt.jobs = 1;
    opt.telemetry = telemetry;
    exec::SweepRunner runner(opt);
    std::vector<exec::JobKey> keys;
    for (const std::string &app : apps)
        keys.push_back({app, "rss-guard", 0, 0});
    KnobSettings fixed_at;
    fixed_at.freqLevel = 8;
    fixed_at.cacheSetting = 2;
    const auto out = runner.mapJobs<double>(
        keys, /*fingerprint=*/0x55D33Au,
        [&](const exec::JobContext &ctx) {
            const KnobSpace knobs(false);
            SimPlant plant(Spec2006Suite::byName(ctx.key.app), knobs);
            FixedController ctrl(fixed_at);
            DriverConfig dcfg;
            dcfg.epochs = epochs;
            dcfg.cancel = &ctx.cancel;
            EpochDriver driver(plant, ctrl, dcfg);
            return driver.run(KnobSettings{}).exdMetric(2);
        });
    ASSERT_EQ(out.results.size(), apps.size());
}

TEST(TelemetryRssGuard, ArmedSweepPeakRssWithinTwiceDisarmed)
{
    ASSERT_FALSE(telemetry::trace().enabled())
        << "another test left the trace buffer armed";
    const size_t epochs = 150;
    // Per-process path: ctest may run sanitized copies concurrently.
    const std::string stem = ::testing::TempDir() + "rss_guard_" +
                             std::to_string(::getpid());
    const std::string trace_path = stem + ".json";

    // Disarmed first (see the file comment: peak RSS is monotonic).
    runSixAppSweep(epochs, "");
    const double peak_off = peakRssMb();
    ASSERT_GT(peak_off, 0.0);

    // Armed through SweepOptions::telemetry; the runner writes the
    // reports (and stops the trace) when it goes out of scope.
    runSixAppSweep(epochs, trace_path);
    const double peak_on = peakRssMb();
    const size_t captured = telemetry::trace().size();
    telemetry::trace().clear();
    std::remove(trace_path.c_str());
    std::remove((stem + ".metrics.json").c_str());

    // Non-vacuous: the armed sweep really traced something.
    EXPECT_GT(captured, 0u) << "armed sweep captured no trace events";

    EXPECT_LE(peak_on, 2.0 * peak_off)
        << "telemetry-armed sweep peaked at " << peak_on
        << " MB vs " << peak_off << " MB disarmed (6 x " << epochs
        << " epochs, " << captured << " trace events)";
}

} // namespace
} // namespace mimoarch
