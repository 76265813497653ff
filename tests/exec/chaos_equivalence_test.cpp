/**
 * @file
 * Digest-equivalence under faults: the resilience analogue of
 * parallel_equivalence_test. A real sweep (plant + controller runs) is
 * executed under seeded chaos injection at 1, 2 and 8 workers, and
 * resumed from a half-complete checkpoint journal; every variant must
 * produce summaries and traces bit-identical to the clean serial
 * reference. This is the contract of DESIGN.md §11: retries re-derive
 * everything from jobSeed(JobKey), so faults perturb scheduling, never
 * results.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/controllers.hpp"
#include "core/design_flow.hpp"
#include "core/harness.hpp"
#include "exec/design_cache.hpp"
#include "exec/sweep.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

ExperimentConfig
sweepConfig()
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 300;
    cfg.validationEpochsPerApp = 150;
    return cfg;
}

struct Digests
{
    uint64_t summary = 0;
    uint64_t trace = 0;

    bool
    operator==(const Digests &o) const
    {
        return summary == o.summary && trace == o.trace;
    }
};

const std::vector<std::pair<std::string, std::string>> kJobs = {
    {"mcf", "MIMO"},    {"mcf", "Heuristic"},
    {"povray", "MIMO"}, {"povray", "Heuristic"},
    {"namd", "MIMO"},   {"namd", "Heuristic"},
};

std::vector<exec::JobKey>
sweepKeys(size_t n)
{
    std::vector<exec::JobKey> keys;
    for (size_t i = 0; i < n; ++i)
        keys.push_back({kJobs[i].first, kJobs[i].second, 0, 0});
    return keys;
}

/** One job: a full 400-epoch run digested bit-exactly. */
Digests
runJob(const exec::JobContext &ctx, const ExperimentConfig &cfg)
{
    const KnobSpace knobs(false);
    std::unique_ptr<ArchController> ctrl;
    if (ctx.key.controller == "MIMO") {
        const auto design =
            exec::DesignCache::instance().design(knobs, cfg);
        const MimoControllerDesign flow(knobs, cfg);
        ctrl = flow.buildController(*design);
    } else {
        ctrl = std::make_unique<HeuristicArchController>(
            knobs, HeuristicArchController::Tuning{}, cfg.ipsReference,
            cfg.powerReference);
    }
    ctrl->setReference(cfg.ipsReference, cfg.powerReference);

    SimPlant plant(Spec2006Suite::byName(ctx.key.app), knobs);
    DriverConfig dcfg;
    dcfg.epochs = 400;
    dcfg.recordTrace = true;
    dcfg.errorSkipEpochs = 100;
    dcfg.cancel = &ctx.cancel;
    EpochDriver driver(plant, *ctrl, dcfg);
    KnobSettings init;
    init.freqLevel = 3;
    init.cacheSetting = 1;
    const RunSummary sum = driver.run(init);
    return Digests{digest(sum), digest(driver.trace())};
}

/** The sweep (first @p n jobs) under @p policy at @p workers. */
exec::SweepOutcome<Digests>
sweepAt(unsigned workers, const exec::ResilientPolicy &policy, size_t n)
{
    exec::SweepOptions opt;
    opt.jobs = workers;
    opt.resilient = policy;
    opt.resilient.retryBackoffS = 0.0; // Retry immediately in tests.
    exec::SweepRunner runner(opt);
    const ExperimentConfig cfg = sweepConfig();
    // Touch the suite before spawning workers (see the TSan note in
    // parallel_equivalence_test.cpp).
    (void)Spec2006Suite::all();
    return runner.mapJobs<Digests>(
        sweepKeys(n), cfg.fingerprint(),
        [&](const exec::JobContext &ctx) { return runJob(ctx, cfg); });
}

exec::ResilientPolicy
chaosPolicy()
{
    exec::ResilientPolicy policy;
    policy.maxAttempts = 8; // Outlast repeated injections.
    policy.chaos.seed = 0xC4A05;
    policy.chaos.exceptionRate = 0.25;
    policy.chaos.delayRate = 0.05;
    policy.chaos.invalidRate = 0.15;
    policy.chaos.delayMs = 2;
    return policy;
}

TEST(ChaosEquivalence, FaultedSweepsDigestIdenticalToCleanAtAnyWidth)
{
    const size_t n = kJobs.size();
    const exec::SweepOutcome<Digests> clean =
        sweepAt(1, exec::ResilientPolicy{}, n);
    ASSERT_TRUE(clean.report.complete());
    ASSERT_EQ(clean.results.size(), n);

    for (unsigned workers : {1u, 2u, 8u}) {
        const exec::SweepOutcome<Digests> chaotic =
            sweepAt(workers, chaosPolicy(), n);
        ASSERT_TRUE(chaotic.report.complete())
            << "chaos exhausted a job's retry budget at " << workers
            << " workers";
        EXPECT_GT(chaotic.report.chaosInjections, 0u);
        for (size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(chaotic.results[i] == clean.results[i])
                << kJobs[i].first << "/" << kJobs[i].second << " at "
                << workers
                << " workers diverged from the clean serial run";
        }
    }
}

TEST(ChaosEquivalence, KillThenResumeDigestsIdenticalToClean)
{
    // Per-process name: ctest runs the plain and tsan/ copies of this
    // test concurrently, and a shared journal would mix their jobs.
    const std::string journal = ::testing::TempDir() +
                                "chaos_equivalence_resume_" +
                                std::to_string(::getpid()) + ".journal";
    std::remove(journal.c_str());
    const size_t n = kJobs.size();
    const exec::SweepOutcome<Digests> clean =
        sweepAt(1, exec::ResilientPolicy{}, n);

    // The "killed" sweep: only the first half of the jobs completed
    // (and were journaled) before the process died.
    exec::ResilientPolicy policy;
    policy.resumePath = journal;
    (void)sweepAt(2, policy, n / 2);

    // The resumed sweep: journaled jobs are restored without running,
    // the rest run fresh — and the result is bit-identical to clean.
    const exec::SweepOutcome<Digests> resumed = sweepAt(2, policy, n);
    EXPECT_EQ(resumed.report.resumedFromJournal, n / 2);
    EXPECT_EQ(resumed.report.completed, n);
    ASSERT_EQ(resumed.results.size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(resumed.results[i] == clean.results[i])
            << kJobs[i].first << "/" << kJobs[i].second
            << (i < n / 2 ? " (restored from journal)" : " (re-run)")
            << " diverged from the clean serial run";
    }
    std::remove(journal.c_str());
}

} // namespace
} // namespace mimoarch
