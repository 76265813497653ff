/**
 * @file
 * The analytic tier under the sweep determinism contract: a surrogate
 * sweep (exec::makePlant with PlantFidelity::Analytic) must digest
 * bit-identically at 1, 2 and 8 workers, under chaos-injected retries,
 * and across a kill-then-resume from a half-complete journal — exactly
 * the guarantees tests/exec/chaos_equivalence_test.cpp proves for the
 * cycle-level tier. Surrogate noise comes from the model seed alone
 * and calibration is memoized on designFingerprint(), so neither
 * scheduling nor cache warm-up may leak into results.
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
#include "exec/plant_factory.hpp"
#include "exec/sweep.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

ExperimentConfig
analyticConfig()
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 300;
    cfg.validationEpochsPerApp = 150;
    cfg.fidelity = PlantFidelity::Analytic;
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

/** One job: a 1000-epoch analytic run digested bit-exactly. */
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

    auto plant =
        exec::makePlant(Spec2006Suite::byName(ctx.key.app), knobs, cfg);
    DriverConfig dcfg;
    dcfg.epochs = 1000;
    dcfg.errorSkipEpochs = 100;
    dcfg.fidelity = cfg.fidelity;
    dcfg.cancel = &ctx.cancel;
    EpochDriver driver(*plant, *ctrl, dcfg);
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
    const ExperimentConfig cfg = analyticConfig();
    // Touch the suite and pre-calibrate the surrogates before spawning
    // workers (same lazy-static note as parallel_equivalence_test; the
    // cache itself is once_flag-guarded either way).
    (void)Spec2006Suite::all();
    const KnobSpace knobs(false);
    for (size_t i = 0; i < n; ++i)
        (void)exec::DesignCache::instance().surrogate(
            Spec2006Suite::byName(kJobs[i].first), knobs, cfg);
    return runner.mapJobs<Digests>(
        sweepKeys(n), cfg.fingerprint(),
        [&](const exec::JobContext &ctx) { return runJob(ctx, cfg); });
}

exec::ResilientPolicy
chaosPolicy()
{
    exec::ResilientPolicy policy;
    policy.maxAttempts = 8; // Outlast repeated injections.
    policy.chaos.seed = 0xF1DE;
    policy.chaos.exceptionRate = 0.25;
    policy.chaos.delayRate = 0.05;
    policy.chaos.invalidRate = 0.15;
    policy.chaos.delayMs = 2;
    return policy;
}

TEST(FidelityDeterminism, AnalyticSweepsDigestIdenticalAtAnyWidth)
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
        for (size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(chaotic.results[i] == clean.results[i])
                << kJobs[i].first << "/" << kJobs[i].second << " at "
                << workers
                << " workers diverged from the clean serial run";
        }
    }
}

TEST(FidelityDeterminism, KillThenResumeDigestsIdenticalToClean)
{
    // Per-process name: ctest runs the copies of this test concurrently.
    const std::string journal = ::testing::TempDir() +
                                "fidelity_determinism_resume_" +
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

    // The resumed sweep restores the journaled half without running it
    // and re-runs the rest — bit-identical to the clean reference.
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
