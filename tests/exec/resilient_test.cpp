/**
 * @file
 * Resilient-engine tests with synthetic (non-simulation) jobs: failure
 * isolation and identity, deterministic retry, per-attempt deadlines,
 * fail-fast cancellation, the --max-failures degradation path, the
 * failure report, journal resume, and the chaos injector.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "exec/sweep.hpp"

namespace mimoarch::exec {
namespace {

std::vector<JobKey>
makeKeys(size_t n)
{
    std::vector<JobKey> keys;
    for (size_t i = 0; i < n; ++i)
        keys.push_back({"app" + std::to_string(i), "ctl", 0, i});
    return keys;
}

SweepRunner
makeRunner(unsigned jobs, const ResilientPolicy &policy)
{
    SweepOptions opt;
    opt.jobs = jobs;
    opt.resilient = policy;
    // Test jobs are microseconds long; a real backoff only slows the
    // suite down without changing any semantics under test.
    opt.resilient.retryBackoffS = 0.0;
    return SweepRunner(opt);
}

/** Per-process path: ctest runs the copies of this suite concurrently. */
std::string
tmpPath(const std::string &stem)
{
    return ::testing::TempDir() + "resilient_test_" + stem + "_" +
           ::testing::UnitTest::GetInstance()
               ->current_test_info()
               ->name() +
           "_" + std::to_string(::getpid());
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(CancellationToken, StartsClearAndLatchesCancel)
{
    CancellationToken token;
    EXPECT_FALSE(token.canceled());
    token.requestCancel();
    EXPECT_TRUE(token.canceled());
    token.requestCancel(); // Idempotent.
    EXPECT_TRUE(token.canceled());
    EXPECT_FALSE(token.expired()); // A root has no deadline.
}

TEST(CancellationToken, ChildOfACanceledParentIsCanceledNotExpired)
{
    CancellationToken parent;
    const CancellationToken child(&parent);
    EXPECT_FALSE(child.canceled());
    parent.requestCancel();
    EXPECT_TRUE(child.canceled());
    EXPECT_FALSE(child.expired());
}

TEST(CancellationToken, ChildPastItsDeadlineIsCanceledAndExpired)
{
    const CancellationToken parent;
    const CancellationToken child(
        &parent, CancellationToken::Clock::time_point::min());
    EXPECT_TRUE(child.canceled());
    EXPECT_TRUE(child.expired());
    EXPECT_FALSE(parent.canceled()); // Cancellation never flows up.
}

TEST(CancellationToken, ChildOfALiveParentBeforeItsDeadlineIsNeither)
{
    const CancellationToken parent;
    const CancellationToken child(&parent,
                                  CancellationToken::Clock::now() +
                                      std::chrono::hours(1));
    EXPECT_FALSE(child.canceled());
    EXPECT_FALSE(child.expired());
}

TEST(Resilient, FailureCauseNamesAreStable)
{
    EXPECT_STREQ(failureCauseName(FailureCause::Exception), "exception");
    EXPECT_STREQ(failureCauseName(FailureCause::Timeout), "timeout");
    EXPECT_STREQ(failureCauseName(FailureCause::InvalidResult),
                 "invalid-result");
    EXPECT_STREQ(failureCauseName(FailureCause::Canceled), "canceled");
}

TEST(Resilient, JobKeyLabelNamesEveryField)
{
    const JobKey key{"mcf", "MIMO", 3, 7};
    EXPECT_EQ(key.label(), "mcf/MIMO/config=3/rep=7");
    EXPECT_EQ((JobKey{"", "", 0, 0}).label(), "-/-/config=0/rep=0");
}

TEST(Resilient, OneFailingJobDoesNotKillTheOthers)
{
    const size_t n = 8;
    ResilientPolicy policy;
    policy.maxAttempts = 2;
    SweepRunner runner = makeRunner(4, policy);
    std::atomic<int> healthy_done{0};
    try {
        (void)runner.mapJobs<uint64_t>(
            makeKeys(n), 1, [&](const JobContext &ctx) -> uint64_t {
                if (ctx.index == 3)
                    throw std::runtime_error("boom 3");
                healthy_done.fetch_add(1);
                return ctx.index + 100;
            });
        FAIL() << "expected SweepError";
    } catch (const SweepError &e) {
        // Full identity attached: which job, how many attempts, why.
        ASSERT_EQ(e.failures().size(), 1u);
        const JobFailure &f = e.failures().front();
        EXPECT_EQ(f.index, 3u);
        EXPECT_EQ(f.key.app, "app3");
        EXPECT_EQ(f.attempts, 2u);
        EXPECT_EQ(f.cause, FailureCause::Exception);
        EXPECT_EQ(f.message, "boom 3");
        EXPECT_NE(std::string(e.what()).find("app3/ctl/config=0/rep=3"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("2 attempt(s)"),
                  std::string::npos)
            << e.what();
    }
    // The sweep survived: every healthy job ran to completion.
    EXPECT_EQ(healthy_done.load(), static_cast<int>(n - 1));
}

TEST(Resilient, RetriesRerunFromTheSameSeedAndSucceed)
{
    const size_t n = 6;
    ResilientPolicy policy;
    policy.maxAttempts = 3;
    for (unsigned workers : {1u, 4u}) {
        SweepRunner runner = makeRunner(workers, policy);
        const auto outcome = runner.mapJobs<uint64_t>(
            makeKeys(n), 1, [&](const JobContext &ctx) -> uint64_t {
                if (ctx.attempt == 1)
                    throw std::runtime_error("transient");
                // Seed-derived result: identical on every attempt.
                return jobSeed(ctx.key) ^ ctx.index;
            });
        EXPECT_TRUE(outcome.report.complete());
        EXPECT_EQ(outcome.report.completed, n);
        EXPECT_EQ(outcome.report.retries, n) << "workers=" << workers;
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(outcome.results[i],
                      jobSeed(makeKeys(n)[i]) ^ i);
    }
}

TEST(Resilient, ValidatorRejectionIsAnInvalidResultFailure)
{
    const size_t n = 4;
    ResilientPolicy policy;
    policy.maxAttempts = 2;
    policy.maxFailures = 1;
    SweepRunner runner = makeRunner(2, policy);
    const auto outcome = runner.mapJobs<uint64_t>(
        makeKeys(n), 1,
        [](const JobContext &ctx) -> uint64_t { return ctx.index + 100; },
        [](const uint64_t &r) { return r != 102; });
    ASSERT_EQ(outcome.report.failures.size(), 1u);
    const JobFailure &f = outcome.report.failures.front();
    EXPECT_EQ(f.index, 2u);
    EXPECT_EQ(f.cause, FailureCause::InvalidResult);
    EXPECT_EQ(f.attempts, 2u); // Rejections retry like any failure.
    // The rejected job's slot is reset to a well-defined default.
    EXPECT_EQ(outcome.results[2], 0u);
    EXPECT_EQ(outcome.results[0], 100u);
    EXPECT_EQ(outcome.results[3], 103u);
}

TEST(Resilient, WatchdogDeadlinesAStalledJob)
{
    // At 1 worker the stalled job runs inline on this thread, so only
    // its own token's deadline can unwind it.
    for (unsigned workers : {1u, 2u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const size_t n = 2;
        ResilientPolicy policy;
        policy.maxAttempts = 1;
        policy.maxFailures = 1;
        policy.jobTimeoutS = 0.05;
        SweepRunner runner = makeRunner(workers, policy);
        const auto outcome = runner.mapJobs<uint64_t>(
            makeKeys(n), 1, [](const JobContext &ctx) -> uint64_t {
                if (ctx.index == 1) {
                    // A cooperative stall: spin until the deadline
                    // cancels us (bounded so a broken deadline can't
                    // hang the test).
                    const auto give_up =
                        std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
                    while (!ctx.cancel.canceled() &&
                           std::chrono::steady_clock::now() < give_up) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    }
                    throw CanceledError("stalled job unwound");
                }
                return ctx.index + 100;
            });
        EXPECT_EQ(outcome.report.timeouts, 1u);
        ASSERT_EQ(outcome.report.failures.size(), 1u);
        const JobFailure &f = outcome.report.failures.front();
        EXPECT_EQ(f.index, 1u);
        EXPECT_EQ(f.cause, FailureCause::Timeout);
        EXPECT_EQ(outcome.results[0], 100u);
    }
}

TEST(Resilient, FailFastCancelsEverythingOutstanding)
{
    // Serial schedule so "outstanding" is exactly jobs 2..5: job 1's
    // permanent failure must stop them from ever running.
    const size_t n = 6;
    ResilientPolicy policy;
    policy.maxAttempts = 1;
    policy.failFast = true;
    SweepRunner runner = makeRunner(1, policy);
    std::atomic<int> ran{0};
    try {
        (void)runner.mapJobs<uint64_t>(
            makeKeys(n), 1, [&](const JobContext &ctx) -> uint64_t {
                ran.fetch_add(1);
                if (ctx.index == 1)
                    throw std::runtime_error("root cause");
                return ctx.index;
            });
        FAIL() << "expected SweepError";
    } catch (const SweepError &e) {
        EXPECT_EQ(ran.load(), 2); // Jobs 0 and 1 only.
        ASSERT_EQ(e.failures().size(), n - 1);
        EXPECT_EQ(e.failures()[0].index, 1u);
        EXPECT_EQ(e.failures()[0].cause, FailureCause::Exception);
        for (size_t k = 1; k < e.failures().size(); ++k) {
            EXPECT_EQ(e.failures()[k].cause, FailureCause::Canceled);
            EXPECT_EQ(e.failures()[k].attempts, 0u);
        }
        // The error text names the root cause, not the collateral.
        EXPECT_NE(std::string(e.what()).find("root cause"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Resilient, MaxFailuresDegradesGracefully)
{
    const size_t n = 8;
    ResilientPolicy policy;
    policy.maxAttempts = 1;
    policy.maxFailures = 2;
    SweepRunner runner = makeRunner(4, policy);
    const auto outcome = runner.mapJobs<uint64_t>(
        makeKeys(n), 1, [](const JobContext &ctx) -> uint64_t {
            if (ctx.index == 2 || ctx.index == 5)
                throw std::runtime_error("dead");
            return ctx.index + 100;
        });
    EXPECT_FALSE(outcome.report.complete());
    EXPECT_EQ(outcome.report.completed, n - 2);
    ASSERT_EQ(outcome.report.failures.size(), 2u);
    EXPECT_EQ(outcome.report.failures[0].index, 2u); // Sorted by index.
    EXPECT_EQ(outcome.report.failures[1].index, 5u);
    for (size_t i = 0; i < n; ++i) {
        const bool failed = i == 2 || i == 5;
        EXPECT_EQ(outcome.results[i], failed ? 0u : i + 100);
    }
}

TEST(Resilient, OneFailureOverTheBudgetStillThrows)
{
    ResilientPolicy policy;
    policy.maxAttempts = 1;
    policy.maxFailures = 1;
    SweepRunner runner = makeRunner(1, policy);
    try {
        (void)runner.mapJobs<uint64_t>(
            makeKeys(4), 1, [](const JobContext &ctx) -> uint64_t {
                if (ctx.index == 1 || ctx.index == 2)
                    throw std::runtime_error("dead " +
                                             std::to_string(ctx.index));
                return ctx.index;
            });
        FAIL() << "expected SweepError";
    } catch (const SweepError &e) {
        EXPECT_GE(e.failures().size(), 2u);
        EXPECT_NE(std::string(e.what()).find("more failed/canceled"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Resilient, FailureReportIsWrittenEvenWhenTolerated)
{
    const std::string path = tmpPath("report") + ".json";
    std::remove(path.c_str());
    ResilientPolicy policy;
    policy.maxAttempts = 1;
    policy.maxFailures = 1;
    policy.failureReportPath = path;
    SweepRunner runner = makeRunner(2, policy);
    (void)runner.mapJobs<uint64_t>(
        makeKeys(4), 1, [](const JobContext &ctx) -> uint64_t {
            if (ctx.index == 2)
                throw std::runtime_error("with \"quotes\"\nand a newline");
            return ctx.index;
        });
    const std::string report = readAll(path);
    EXPECT_NE(report.find("\"schema\": 3"), std::string::npos);
    EXPECT_NE(report.find("\"jobs\": 4"), std::string::npos);
    EXPECT_NE(report.find("\"completed\": 3"), std::string::npos);
    EXPECT_NE(report.find("\"app\": \"app2\""), std::string::npos);
    EXPECT_NE(report.find("\"cause\": \"exception\""),
              std::string::npos);
    EXPECT_NE(report.find("with \\\"quotes\\\"\\u000aand a newline"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Resilient, CleanSweepAlsoWritesTheReport)
{
    const std::string path = tmpPath("clean_report") + ".json";
    std::remove(path.c_str());
    ResilientPolicy policy;
    policy.failureReportPath = path;
    SweepRunner runner = makeRunner(2, policy);
    const auto outcome = runner.mapJobs<uint64_t>(
        makeKeys(3), 1,
        [](const JobContext &ctx) -> uint64_t { return ctx.index; });
    EXPECT_TRUE(outcome.report.complete());
    const std::string report = readAll(path);
    EXPECT_NE(report.find("\"schema\": 3"), std::string::npos);
    EXPECT_NE(report.find("\"jobs\": 3"), std::string::npos);
    EXPECT_NE(report.find("\"completed\": 3"), std::string::npos);
    EXPECT_NE(report.find("\"failures\": ["), std::string::npos);
    std::remove(path.c_str());
}

TEST(Resilient, ResumeRestoresJournaledResultsWithoutRerunning)
{
    const std::string path = tmpPath("journal") + ".journal";
    std::remove(path.c_str());
    const size_t n = 6;
    ResilientPolicy policy;
    policy.resumePath = path;
    std::atomic<int> runs{0};
    const auto fn = [&](const JobContext &ctx) -> uint64_t {
        runs.fetch_add(1);
        return jobSeed(ctx.key) * 3;
    };

    SweepRunner first = makeRunner(2, policy);
    const auto before = first.mapJobs<uint64_t>(makeKeys(n), 77, fn);
    EXPECT_EQ(before.report.resumedFromJournal, 0u);
    EXPECT_EQ(runs.load(), static_cast<int>(n));

    // A fresh runner (a "restarted process") resumes from the journal:
    // every job restored, none re-run, results bit-identical.
    SweepRunner second = makeRunner(2, policy);
    const auto after = second.mapJobs<uint64_t>(makeKeys(n), 77, fn);
    EXPECT_EQ(after.report.resumedFromJournal, n);
    EXPECT_EQ(after.report.completed, n);
    EXPECT_EQ(runs.load(), static_cast<int>(n));
    EXPECT_EQ(after.results, before.results);
    std::remove(path.c_str());
}

TEST(Resilient, ResultsAreWorkerCountInvariantUnderRetries)
{
    const size_t n = 16;
    ResilientPolicy policy;
    policy.maxAttempts = 3;
    const auto fn = [](const JobContext &ctx) -> uint64_t {
        // Odd jobs fail their first attempt; results derive only from
        // the seed, so the schedule must not show through.
        if (ctx.attempt == 1 && ctx.index % 2 == 1)
            throw std::runtime_error("transient");
        return jobSeed(ctx.key) ^ 0x5EED;
    };
    SweepRunner serial = makeRunner(1, policy);
    const auto reference =
        serial.mapJobs<uint64_t>(makeKeys(n), 1, fn).results;
    for (unsigned workers : {2u, 8u}) {
        SweepRunner runner = makeRunner(workers, policy);
        EXPECT_EQ(runner.mapJobs<uint64_t>(makeKeys(n), 1, fn).results,
                  reference)
            << "workers=" << workers;
    }
}

TEST(Chaos, SampleIsAPureFunctionOfSeedJobAndAttempt)
{
    ChaosConfig cfg;
    cfg.exceptionRate = 0.3;
    cfg.delayRate = 0.2;
    cfg.invalidRate = 0.2;
    const ChaosInjector injector(cfg);
    for (uint64_t job = 0; job < 50; ++job) {
        for (unsigned attempt = 1; attempt <= 4; ++attempt) {
            EXPECT_EQ(injector.sample(job, attempt),
                      injector.sample(job, attempt));
        }
    }
}

TEST(Chaos, RateZeroNeverFiresAndRateOneAlwaysFires)
{
    ChaosConfig off;
    EXPECT_FALSE(off.any());
    const ChaosInjector quiet(off);
    ChaosConfig always;
    always.exceptionRate = 1.0;
    const ChaosInjector loud(always);
    for (uint64_t job = 0; job < 100; ++job) {
        EXPECT_EQ(quiet.sample(job, 1), ChaosAction::None);
        EXPECT_EQ(loud.sample(job, 1), ChaosAction::Throw);
    }
}

TEST(Chaos, RetriesSampleFreshOutcomes)
{
    // With a 50% rate, some (job, attempt) pair must clear within a
    // few attempts — otherwise retries could never drain chaos faults.
    ChaosConfig cfg;
    cfg.exceptionRate = 0.5;
    const ChaosInjector injector(cfg);
    size_t cleared = 0;
    for (uint64_t job = 0; job < 32; ++job) {
        for (unsigned attempt = 1; attempt <= 6; ++attempt) {
            if (injector.sample(job, attempt) == ChaosAction::None) {
                ++cleared;
                break;
            }
        }
    }
    EXPECT_GT(cleared, 28u); // P(six straight hits) = 2^-6 per job.
}

TEST(Chaos, InjectedSweepDigestsIdenticalToClean)
{
    const size_t n = 8;
    const auto fn = [](const JobContext &ctx) -> uint64_t {
        return jobSeed(ctx.key) ^ (ctx.index << 32);
    };
    ResilientPolicy clean_policy;
    SweepRunner clean = makeRunner(2, clean_policy);
    const auto reference =
        clean.mapJobs<uint64_t>(makeKeys(n), 1, fn).results;

    ResilientPolicy chaotic;
    chaotic.maxAttempts = 10;
    chaotic.chaos.seed = 0xC4A05;
    chaotic.chaos.exceptionRate = 0.3;
    chaotic.chaos.invalidRate = 0.2;
    SweepRunner runner = makeRunner(4, chaotic);
    const auto outcome = runner.mapJobs<uint64_t>(makeKeys(n), 1, fn);
    EXPECT_TRUE(outcome.report.complete());
    EXPECT_GT(outcome.report.chaosInjections, 0u);
    EXPECT_EQ(outcome.results, reference);
}

} // namespace
} // namespace mimoarch::exec
