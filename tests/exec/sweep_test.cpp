/**
 * @file
 * SweepRunner and job-seeding unit tests: flag parsing, key-ordered
 * mapJobs() results at any worker count, and the stability properties
 * jobSeed() promises. Failure routing is covered by resilient_test.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "exec/sweep.hpp"

namespace mimoarch::exec {
namespace {

std::vector<char *>
argvOf(std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return argv;
}

TEST(ParseSweepArgs, DefaultsToHardwareConcurrency)
{
    std::vector<std::string> args = {"bench"};
    auto argv = argvOf(args);
    const SweepOptions opt =
        parseSweepArgs(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opt.jobs, 0u); // 0 = resolve to hardware concurrency
    EXPECT_FALSE(opt.progress);
}

TEST(ParseSweepArgs, AcceptsEveryJobsSpelling)
{
    const std::vector<std::vector<std::string>> cases = {
        {"bench", "--jobs", "4"},
        {"bench", "--jobs=4"},
        {"bench", "-j", "4"},
        {"bench", "-j4"},
    };
    for (std::vector<std::string> args : cases) {
        auto argv = argvOf(args);
        const SweepOptions opt =
            parseSweepArgs(static_cast<int>(argv.size()), argv.data());
        EXPECT_EQ(opt.jobs, 4u) << args[1];
    }
}

TEST(ParseSweepArgs, ParsesResilienceFlags)
{
    std::vector<std::string> args = {
        "bench",        "--retries=4",    "--job-timeout", "2.5",
        "--max-failures", "3",            "--fail-fast",
        "--resume",     "ckpt.journal",   "--failure-report=rep.json"};
    auto argv = argvOf(args);
    const SweepOptions opt =
        parseSweepArgs(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opt.resilient.maxAttempts, 5u); // 1 try + 4 retries
    EXPECT_DOUBLE_EQ(opt.resilient.jobTimeoutS, 2.5);
    EXPECT_EQ(opt.resilient.maxFailures, 3u);
    EXPECT_TRUE(opt.resilient.failFast);
    EXPECT_EQ(opt.resilient.resumePath, "ckpt.journal");
    EXPECT_EQ(opt.resilient.failureReportPath, "rep.json");
}

TEST(ParseSweepArgs, ParsesChaosFlags)
{
    std::vector<std::string> args = {
        "bench", "--chaos-seed=9", "--chaos-exception-rate", "0.25",
        "--chaos-delay-rate=0.1", "--chaos-invalid-rate=0.05",
        "--chaos-delay-ms", "20"};
    auto argv = argvOf(args);
    const SweepOptions opt =
        parseSweepArgs(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opt.resilient.chaos.seed, 9u);
    EXPECT_DOUBLE_EQ(opt.resilient.chaos.exceptionRate, 0.25);
    EXPECT_DOUBLE_EQ(opt.resilient.chaos.delayRate, 0.1);
    EXPECT_DOUBLE_EQ(opt.resilient.chaos.invalidRate, 0.05);
    EXPECT_EQ(opt.resilient.chaos.delayMs, 20u);
    EXPECT_TRUE(opt.resilient.chaos.any());
}

TEST(SweepRunner, ReportsAtLeastOneJob)
{
    SweepOptions opt;
    opt.jobs = 0;
    SweepRunner runner(opt);
    EXPECT_GE(runner.jobs(), 1u);
}

TEST(SweepRunner, MapReturnsResultsInIndexOrder)
{
    std::vector<JobKey> keys(100);
    for (size_t i = 0; i < keys.size(); ++i)
        keys[i].rep = i;
    for (unsigned jobs : {1u, 2u, 8u}) {
        SweepOptions opt;
        opt.jobs = jobs;
        SweepRunner runner(opt);
        const SweepOutcome<size_t> out = runner.mapJobs<size_t>(
            keys, 0, [](const JobContext &ctx) {
                return static_cast<size_t>(ctx.key.rep * ctx.key.rep);
            });
        EXPECT_TRUE(out.report.complete());
        ASSERT_EQ(out.results.size(), 100u);
        for (size_t i = 0; i < out.results.size(); ++i)
            EXPECT_EQ(out.results[i], i * i) << "jobs=" << jobs;
    }
}

TEST(SweepRunner, EmptySweepIsANoOp)
{
    SweepOptions opt;
    opt.jobs = 4;
    SweepRunner runner(opt);
    const SweepOutcome<int> out = runner.mapJobs<int>(
        {}, 0, [](const JobContext &) { return 1; });
    EXPECT_TRUE(out.results.empty());
    EXPECT_EQ(out.report.jobs, 0u);
    EXPECT_TRUE(out.report.complete());
}

TEST(JobSeed, IsAPureFunctionOfTheKey)
{
    const JobKey key{"mcf", "MIMO", 3, 7};
    EXPECT_EQ(jobSeed(key), jobSeed(key));
    EXPECT_EQ(jobSeed(key), jobSeed(JobKey{"mcf", "MIMO", 3, 7}));
}

TEST(JobSeed, EveryKeyFieldChangesTheSeed)
{
    const JobKey base{"mcf", "MIMO", 3, 7};
    const std::vector<JobKey> variants = {
        {"lbm", "MIMO", 3, 7},
        {"mcf", "Heuristic", 3, 7},
        {"mcf", "MIMO", 4, 7},
        {"mcf", "MIMO", 3, 8},
    };
    for (const JobKey &k : variants)
        EXPECT_NE(jobSeed(k), jobSeed(base))
            << k.app << "/" << k.controller << "/" << k.config << "/"
            << k.rep;
}

TEST(JobSeed, FieldBoundariesAreUnambiguous)
{
    // Length-prefixed string hashing: moving a character across the
    // app/controller boundary must change the seed.
    EXPECT_NE(jobSeed(JobKey{"ab", "c", 0, 0}),
              jobSeed(JobKey{"a", "bc", 0, 0}));
}

TEST(JobSeed, SpreadsAcrossTheAppSweep)
{
    // No collisions over a realistic sweep's key set.
    std::set<uint64_t> seeds;
    for (int app = 0; app < 32; ++app)
        for (int arch = 0; arch < 4; ++arch)
            for (uint64_t rep = 0; rep < 8; ++rep)
                seeds.insert(jobSeed(JobKey{"app" + std::to_string(app),
                                            "arch" + std::to_string(arch),
                                            0, rep}));
    EXPECT_EQ(seeds.size(), 32u * 4u * 8u);
}

} // namespace
} // namespace mimoarch::exec
