/**
 * @file
 * Chip sweeps under the sweep determinism contract: exec::runChipJob
 * jobs (2-core chips, arbiter live, analytic tier for speed) must
 * digest bit-identically at 1, 2 and 8 workers, under chaos-injected
 * retries, and across a kill-then-resume from a half-complete journal
 * — the same guarantees fidelity_determinism_test.cpp proves for
 * scalar jobs, now with the arbiter's way moves and re-targets in the
 * loop. ChipResult is journalable, so --resume restores whole chips.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/experiment_config.hpp"
#include "exec/chip_job.hpp"
#include "exec/design_cache.hpp"
#include "exec/sweep.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

/** App pairs for the three 2-core chip jobs in the sweep. */
const std::vector<std::vector<std::string>> kChips = {
    {"mcf", "povray"},
    {"namd", "mcf"},
    {"povray", "namd"},
};

ExperimentConfig
chipSweepConfig()
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 300;
    cfg.validationEpochsPerApp = 150;
    cfg.fidelity = PlantFidelity::Analytic;
    cfg.chip.nCores = 2;
    cfg.chip.l2Ways = 8;
    cfg.chip.arbiterEnabled = true;
    cfg.chip.arbiterPeriodEpochs = 100;
    // 80% of the 2-core nominal envelope, so arbitration re-targets.
    cfg.chip.powerEnvelopeW = 1.6 * cfg.powerReference;
    return cfg;
}

std::vector<exec::JobKey>
sweepKeys(size_t n)
{
    std::vector<exec::JobKey> keys;
    for (size_t i = 0; i < n; ++i)
        keys.push_back({kChips[i][0] + "+" + kChips[i][1], "Chip",
                        static_cast<unsigned>(i), 0});
    return keys;
}

exec::ChipResult
runJob(const exec::JobContext &ctx, const ExperimentConfig &cfg)
{
    const KnobSpace knobs(false);
    exec::ChipJobConfig job;
    job.cfg = &cfg;
    job.design = exec::DesignCache::instance().design(knobs, cfg);
    job.apps = kChips[ctx.key.config];
    job.epochs = 400;
    job.errorSkipEpochs = 100;
    job.initial.freqLevel = 3;
    job.initial.cacheSetting = 1;
    return exec::runChipJob(job, ctx);
}

exec::SweepOutcome<exec::ChipResult>
sweepAt(unsigned workers, const exec::ResilientPolicy &policy, size_t n)
{
    exec::SweepOptions opt;
    opt.jobs = workers;
    opt.resilient = policy;
    opt.resilient.retryBackoffS = 0.0; // Retry immediately in tests.
    exec::SweepRunner runner(opt);
    const ExperimentConfig cfg = chipSweepConfig();
    // Pre-warm the process-wide caches before spawning workers (same
    // lazy-static note as fidelity_determinism_test.cpp).
    (void)Spec2006Suite::all();
    const KnobSpace knobs(false);
    (void)exec::DesignCache::instance().design(knobs, cfg);
    for (const char *app : {"mcf", "povray", "namd"})
        (void)exec::DesignCache::instance().surrogate(
            Spec2006Suite::byName(app), knobs, cfg);
    return runner.mapJobs<exec::ChipResult>(
        sweepKeys(n), cfg.fingerprint(),
        [&](const exec::JobContext &ctx) { return runJob(ctx, cfg); });
}

exec::ResilientPolicy
chaosPolicy()
{
    exec::ResilientPolicy policy;
    policy.maxAttempts = 8; // Outlast repeated injections.
    policy.chaos.seed = 0xC41F;
    policy.chaos.exceptionRate = 0.25;
    policy.chaos.delayRate = 0.05;
    policy.chaos.invalidRate = 0.15;
    policy.chaos.delayMs = 2;
    return policy;
}

void
expectSameChip(const exec::ChipResult &a, const exec::ChipResult &b,
               const std::string &what)
{
    EXPECT_EQ(a.chipDigest, b.chipDigest) << what;
    ASSERT_EQ(a.nCores, b.nCores) << what;
    for (size_t c = 0; c < a.nCores; ++c)
        EXPECT_EQ(a.coreTraceDigest[c], b.coreTraceDigest[c])
            << what << " core " << c;
    EXPECT_EQ(a.arbiterRounds, b.arbiterRounds) << what;
    EXPECT_EQ(a.retargets, b.retargets) << what;
    EXPECT_EQ(a.wayMoves, b.wayMoves) << what;
}

TEST(ChipDeterminism, ChipSweepsDigestIdenticalAtAnyWidth)
{
    const size_t n = kChips.size();
    const exec::SweepOutcome<exec::ChipResult> clean =
        sweepAt(1, exec::ResilientPolicy{}, n);
    ASSERT_TRUE(clean.report.complete());
    ASSERT_EQ(clean.results.size(), n);
    for (const exec::ChipResult &r : clean.results) {
        // 400 epochs / period 100 -> rounds at 100, 200 and 300.
        EXPECT_EQ(r.arbiterRounds, 3ul);
        EXPECT_GT(r.retargets, 0ul);
    }

    for (unsigned workers : {1u, 2u, 8u}) {
        const exec::SweepOutcome<exec::ChipResult> chaotic =
            sweepAt(workers, chaosPolicy(), n);
        ASSERT_TRUE(chaotic.report.complete())
            << "chaos exhausted a chip job's retry budget at "
            << workers << " workers";
        for (size_t i = 0; i < n; ++i)
            expectSameChip(chaotic.results[i], clean.results[i],
                           kChips[i][0] + "+" + kChips[i][1] + " at " +
                               std::to_string(workers) + " workers");
    }
}

TEST(ChipDeterminism, KillThenResumeDigestsIdenticalToClean)
{
    // Per-process name: ctest runs the copies of this test concurrently.
    const std::string journal = ::testing::TempDir() +
                                "chip_determinism_resume_" +
                                std::to_string(::getpid()) + ".journal";
    std::remove(journal.c_str());
    const size_t n = kChips.size();
    const exec::SweepOutcome<exec::ChipResult> clean =
        sweepAt(1, exec::ResilientPolicy{}, n);

    // The "killed" sweep: only the first chip completed (and was
    // journaled) before the process died.
    exec::ResilientPolicy policy;
    policy.resumePath = journal;
    (void)sweepAt(2, policy, 1);

    // The resumed sweep restores that chip without re-running it and
    // runs the other two — bit-identical to the clean reference.
    const exec::SweepOutcome<exec::ChipResult> resumed =
        sweepAt(2, policy, n);
    EXPECT_EQ(resumed.report.resumedFromJournal, 1u);
    EXPECT_EQ(resumed.report.completed, n);
    ASSERT_EQ(resumed.results.size(), n);
    for (size_t i = 0; i < n; ++i)
        expectSameChip(resumed.results[i], clean.results[i],
                       kChips[i][0] + "+" + kChips[i][1] +
                           (i == 0 ? " (restored)" : " (re-run)"));
    std::remove(journal.c_str());
}

} // namespace
} // namespace mimoarch
