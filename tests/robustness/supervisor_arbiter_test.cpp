/**
 * @file
 * The supervisor's degradation ladder under the chip arbiter: a core
 * whose supervised loop walks to SafePin must drop out of budget
 * re-targeting (the arbiter reserves its measured draw instead of
 * handing it a new operating point), the surplus must flow to the
 * healthy cores deterministically, and the whole faulted chip run must
 * stay bit-repeatable, also when its cores step on parallel threads.
 *
 * Core 0's supervised stack is given an unreachable reference (50
 * BIPS at 0.05 W), so its tracking error is persistently enormous on
 * the real simulator: reset, fallback, and SafePin follow on the
 * supervisor's own schedule, with the arbiter re-partitioning above it
 * every 50 epochs the whole time.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "chip/chip.hpp"
#include "core/design_flow.hpp"
#include "core/harness.hpp"
#include "exec/design_cache.hpp"
#include "robustness/supervisor.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

ExperimentConfig
chipTestConfig()
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 300;
    cfg.validationEpochsPerApp = 150;
    return cfg;
}

struct RunOutcome
{
    uint64_t digest = 0;
    std::vector<chip::ArbiterEvent> events;
    unsigned finalTier = 0;
    double finalRefIps = 0.0;
    double finalRefPower = 0.0;
};

RunOutcome
runFaultedChip(unsigned threads = 1)
{
    const ExperimentConfig cfg = chipTestConfig();
    const KnobSpace knobs(false);
    const auto design = exec::DesignCache::instance().design(knobs, cfg);
    const MimoControllerDesign flow(knobs, cfg);

    std::vector<chip::ChipCore> cores(2);

    // Core 0: supervised MIMO with an unreachable reference — the
    // loop can never close the error, so the ladder walks to SafePin.
    cores[0].app = "mcf";
    cores[0].plant =
        std::make_unique<SimPlant>(Spec2006Suite::byName("mcf"), knobs);
    {
        auto primary = flow.buildController(*design);
        auto fallback = std::make_unique<HeuristicArchController>(
            knobs, HeuristicArchController::Tuning{}, cfg.ipsReference,
            cfg.powerReference);
        KnobSettings safe;
        safe.freqLevel = 8;
        safe.cacheSetting = 2;
        LoopSupervisorConfig sup_cfg;
        sup_cfg.trackingWindow = 10;
        sup_cfg.maxResets = 1;
        sup_cfg.probationEpochs = 50;
        auto sup = std::make_unique<SupervisedController>(
            std::move(primary), std::move(fallback), safe,
            SensorSanitizer::archDefaults(), sup_cfg);
        sup->setReference(50.0, 0.05);
        cores[0].controller = std::move(sup);
    }

    // Core 1: a healthy bare MIMO loop at the nominal references.
    cores[1].app = "povray";
    cores[1].plant = std::make_unique<SimPlant>(
        Spec2006Suite::byName("povray"), knobs);
    {
        auto mimo = flow.buildController(*design);
        mimo->setReference(cfg.ipsReference, cfg.powerReference);
        cores[1].controller = std::move(mimo);
    }

    auto *sup =
        static_cast<SupervisedController *>(cores[0].controller.get());

    ChipConfig ccfg;
    ccfg.nCores = 2;
    ccfg.arbiterEnabled = true;
    ccfg.arbiterPeriodEpochs = 50;
    ccfg.powerEnvelopeW = 1.5 * cfg.powerReference;

    DriverConfig dcfg;
    dcfg.epochs = 600;
    dcfg.errorSkipEpochs = 100;

    chip::ChipInstance inst(std::move(cores), ccfg, dcfg);
    KnobSettings init;
    init.freqLevel = 3;
    init.cacheSetting = 1;
    const chip::ChipRunSummary sum = inst.run(init, threads);

    RunOutcome out;
    out.digest = chip::digest(sum);
    out.events = inst.arbiterEvents();
    out.finalTier = sup->health().tier;
    const auto [ips0, power0] = sup->reference();
    out.finalRefIps = ips0;
    out.finalRefPower = power0;
    return out;
}

TEST(SupervisorUnderArbiter, SafePinnedCoreIsNeverRetargeted)
{
    const RunOutcome out = runFaultedChip();
    ASSERT_EQ(out.finalTier, 3u) << "core 0 must reach SafePin";
    ASSERT_FALSE(out.events.empty());

    // Once pinned, every arbitration round leaves core 0 alone and
    // redistributes the surplus to core 1 inside the envelope.
    const double envelope = 1.5 * chipTestConfig().powerReference;
    bool saw_pinned_round = false;
    double last_retargeted_ips = 50.0, last_retargeted_power = 0.05;
    for (const chip::ArbiterEvent &ev : out.events) {
        if (ev.alloc[0].retarget) {
            // A pre-pin round may re-target core 0; remember the refs
            // it installed so the post-run reference is checkable.
            last_retargeted_ips = ev.alloc[0].ipsTarget;
            last_retargeted_power = ev.alloc[0].powerTarget;
            EXPECT_FALSE(saw_pinned_round)
                << "core 0 was re-targeted after the supervisor "
                   "pinned it";
            continue;
        }
        saw_pinned_round = true;
        // Reserved draw + core 1's share stay inside the envelope,
        // and core 1 keeps receiving targets.
        EXPECT_GE(ev.alloc[0].powerTarget, 0.0);
        EXPECT_TRUE(ev.alloc[1].retarget);
        EXPECT_LE(ev.alloc[0].powerTarget + ev.alloc[1].powerTarget,
                  envelope * (1.0 + 1e-9));
        // The surplus the pin frees up flows to core 1: its share is
        // everything the reserve left, capped at its nominal want.
        EXPECT_GT(ev.alloc[1].powerTarget, 0.0);
    }
    EXPECT_TRUE(saw_pinned_round)
        << "no arbitration round observed the SafePin";

    // The references the core holds at the end are exactly the last
    // ones installed before the pin — the arbiter never moved them
    // afterwards.
    EXPECT_EQ(out.finalRefIps, last_retargeted_ips);
    EXPECT_EQ(out.finalRefPower, last_retargeted_power);
}

// The second run steps its two cores on parallel threads between
// rounds (ChipInstance::run's parallel path): the ladder, the pin and
// every round must come out the same as in the serial run.
TEST(SupervisorUnderArbiter, FaultedChipRunsAreBitRepeatable)
{
    const RunOutcome a = runFaultedChip();
    const RunOutcome b = runFaultedChip(2);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.finalTier, b.finalTier);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t e = 0; e < a.events.size(); ++e) {
        EXPECT_EQ(a.events[e].epoch, b.events[e].epoch);
        for (size_t i = 0; i < 2; ++i) {
            const chip::CoreAllocation &x = a.events[e].alloc[i];
            const chip::CoreAllocation &y = b.events[e].alloc[i];
            EXPECT_EQ(x.ways, y.ways);
            EXPECT_EQ(x.wayMask, y.wayMask);
            EXPECT_EQ(x.ipsTarget, y.ipsTarget);
            EXPECT_EQ(x.powerTarget, y.powerTarget);
            EXPECT_EQ(x.retarget, y.retarget);
        }
    }
}

} // namespace
} // namespace mimoarch
