/**
 * @file
 * Chip-scale equivalence (DESIGN.md §14): the ChipInstance is the
 * single-core stack, N times, plus an arbiter — nothing else. Proved
 * two ways on the cycle-level simulator:
 *
 *   - a 1-core chip with the arbiter disabled digests bit-identically
 *     (RunSummary and EpochTrace) to a plain EpochDriver::run() built
 *     from the same recipe as the golden-trace tests, for both the
 *     MIMO and the Heuristic architectures;
 *   - an N-core chip with the arbiter live is bit-repeatable run to
 *     run, and every arbitration round it applies is a valid partition
 *     of the shared L2 inside the power envelope;
 *   - stepping the cores on parallel threads between arbitration
 *     rounds (ChipInstance::run's parallel path) reproduces the serial
 *     run bit for bit at any thread count: the chip digest, every
 *     core's trace and every applied round.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chip/chip.hpp"
#include "common/cancel.hpp"
#include "core/controllers.hpp"
#include "core/design_flow.hpp"
#include "core/harness.hpp"
#include "exec/design_cache.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

/** The golden-trace recipe's configuration (reduced sysid). */
ExperimentConfig
chipTestConfig()
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 300;
    cfg.validationEpochsPerApp = 150;
    return cfg;
}

std::unique_ptr<ArchController>
makeController(const std::string &arch, const KnobSpace &knobs,
               const ExperimentConfig &cfg)
{
    std::unique_ptr<ArchController> owned;
    if (arch == "MIMO") {
        const auto design =
            exec::DesignCache::instance().design(knobs, cfg);
        const MimoControllerDesign flow(knobs, cfg);
        owned = flow.buildController(*design);
    } else {
        owned = std::make_unique<HeuristicArchController>(
            knobs, HeuristicArchController::Tuning{}, cfg.ipsReference,
            cfg.powerReference);
    }
    owned->setReference(cfg.ipsReference, cfg.powerReference);
    return owned;
}

DriverConfig
driverConfig()
{
    DriverConfig dcfg;
    dcfg.epochs = 600;
    dcfg.errorSkipEpochs = 100;
    return dcfg;
}

KnobSettings
startSettings()
{
    KnobSettings init;
    init.freqLevel = 3;
    init.cacheSetting = 1;
    return init;
}

struct Digests
{
    uint64_t summary = 0;
    uint64_t trace = 0;
};

/** The reference: a bare EpochDriver run, golden-trace style. */
Digests
scalarRun(const std::string &app, const std::string &arch)
{
    const ExperimentConfig cfg = chipTestConfig();
    const KnobSpace knobs(false);
    auto ctrl = makeController(arch, knobs, cfg);
    SimPlant plant(Spec2006Suite::byName(app), knobs);
    EpochDriver driver(plant, *ctrl, driverConfig());
    const RunSummary sum = driver.run(startSettings());
    return {digest(sum), digest(driver.trace())};
}

/** The same run inside a 1-core, arbiter-off ChipInstance. */
Digests
oneCoreChipRun(const std::string &app, const std::string &arch)
{
    const ExperimentConfig cfg = chipTestConfig();
    const KnobSpace knobs(false);
    std::vector<chip::ChipCore> cores(1);
    cores[0].app = app;
    cores[0].plant =
        std::make_unique<SimPlant>(Spec2006Suite::byName(app), knobs);
    cores[0].controller = makeController(arch, knobs, cfg);
    ChipConfig ccfg;
    ccfg.nCores = 1;
    ccfg.arbiterEnabled = false;
    chip::ChipInstance inst(std::move(cores), ccfg, driverConfig());
    const chip::ChipRunSummary sum = inst.run(startSettings());
    EXPECT_TRUE(inst.arbiterEvents().empty());
    EXPECT_EQ(sum.wayMoves, 0ul);
    return {digest(sum.cores[0]), digest(inst.coreTrace(0))};
}

TEST(ChipEquivalence, OneCoreArbiterOffMatchesBareDriverBitForBit)
{
    for (const auto &[app, arch] :
         std::vector<std::pair<std::string, std::string>>{
             {"mcf", "MIMO"},
             {"povray", "MIMO"},
             {"lbm", "Heuristic"}}) {
        const Digests scalar = scalarRun(app, arch);
        const Digests chip = oneCoreChipRun(app, arch);
        EXPECT_EQ(chip.summary, scalar.summary)
            << app << "/" << arch << " RunSummary diverged in the chip";
        EXPECT_EQ(chip.trace, scalar.trace)
            << app << "/" << arch << " EpochTrace diverged in the chip";
    }
}

/** A live 2-core chip under a tight envelope; returns its digest and
 *  leaves the events in @p events. */
uint64_t
twoCoreChipRun(std::vector<chip::ArbiterEvent> *events)
{
    const ExperimentConfig cfg = chipTestConfig();
    const KnobSpace knobs(false);
    std::vector<chip::ChipCore> cores(2);
    const char *apps[] = {"mcf", "povray"};
    for (size_t i = 0; i < 2; ++i) {
        cores[i].app = apps[i];
        cores[i].plant = std::make_unique<SimPlant>(
            Spec2006Suite::byName(apps[i]), knobs);
        cores[i].controller = makeController("MIMO", knobs, cfg);
    }
    ChipConfig ccfg;
    ccfg.nCores = 2;
    ccfg.arbiterEnabled = true;
    ccfg.arbiterPeriodEpochs = 200;
    // 75% of the 2-core nominal envelope: short enough that the power
    // split actually re-targets the cores.
    ccfg.powerEnvelopeW = 1.5 * cfg.powerReference;
    chip::ChipInstance inst(std::move(cores), ccfg, driverConfig());
    const chip::ChipRunSummary sum = inst.run(startSettings());
    if (events != nullptr)
        *events = inst.arbiterEvents();
    EXPECT_EQ(sum.arbiterRounds, 2ul); // epochs 200 and 400
    EXPECT_GT(sum.retargets, 0ul);
    return chip::digest(sum);
}

TEST(ChipEquivalence, ArbiterRunsAreBitRepeatable)
{
    std::vector<chip::ArbiterEvent> first_events;
    const uint64_t first = twoCoreChipRun(&first_events);
    const uint64_t second = twoCoreChipRun(nullptr);
    EXPECT_EQ(first, second);

    // Every applied round is a valid partition of the 8-way L2 and
    // stays inside the envelope (the arbiter invariants, observed at
    // the chip boundary rather than in isolation).
    ASSERT_EQ(first_events.size(), 2u);
    const ExperimentConfig cfg = chipTestConfig();
    for (const chip::ArbiterEvent &ev : first_events) {
        uint32_t ways = 0, mask_union = 0;
        double power = 0.0;
        for (size_t i = 0; i < ev.nCores; ++i) {
            ways += ev.alloc[i].ways;
            EXPECT_EQ(mask_union & ev.alloc[i].wayMask, 0u);
            mask_union |= ev.alloc[i].wayMask;
            power += ev.alloc[i].powerTarget;
        }
        EXPECT_EQ(ways, 8u);
        EXPECT_EQ(mask_union, 0xFFu);
        EXPECT_LE(power, 1.5 * cfg.powerReference * (1.0 + 1e-9));
    }
}

/** Everything a chip run leaves that must not depend on its threads. */
struct ChipOutcome
{
    uint64_t chip = 0;
    std::vector<uint64_t> traces;
    std::vector<chip::ArbiterEvent> events;
};

/**
 * A 3-core gamess/mcf/povray chip run for 130 epochs on @p threads
 * threads. With the arbiter on it re-partitions every 50 epochs under
 * 75% of the 3-core nominal envelope, so the stretches between rounds
 * are 50/50/30 and the last one does not end on a round.
 */
ChipOutcome
threeCoreChipRun(bool arbiter, unsigned threads,
                 const CancellationToken *cancel = nullptr)
{
    const ExperimentConfig cfg = chipTestConfig();
    const KnobSpace knobs(false);
    std::vector<chip::ChipCore> cores(3);
    const char *apps[] = {"gamess", "mcf", "povray"};
    for (size_t i = 0; i < 3; ++i) {
        cores[i].app = apps[i];
        cores[i].plant = std::make_unique<SimPlant>(
            Spec2006Suite::byName(apps[i]), knobs);
        cores[i].controller = makeController("MIMO", knobs, cfg);
    }
    ChipConfig ccfg;
    ccfg.nCores = 3;
    ccfg.arbiterEnabled = arbiter;
    ccfg.arbiterPeriodEpochs = 50;
    ccfg.powerEnvelopeW = 2.25 * cfg.powerReference;
    DriverConfig dcfg;
    dcfg.epochs = 130;
    dcfg.errorSkipEpochs = 30;
    dcfg.cancel = cancel;
    chip::ChipInstance inst(std::move(cores), ccfg, dcfg);
    const chip::ChipRunSummary sum = inst.run(startSettings(), threads);
    ChipOutcome out;
    out.chip = chip::digest(sum);
    for (size_t i = 0; i < 3; ++i)
        out.traces.push_back(digest(inst.coreTrace(i)));
    out.events = inst.arbiterEvents();
    return out;
}

void
expectSameOutcome(const ChipOutcome &serial, const ChipOutcome &parallel)
{
    EXPECT_EQ(parallel.chip, serial.chip);
    EXPECT_EQ(parallel.traces, serial.traces);
    ASSERT_EQ(parallel.events.size(), serial.events.size());
    for (size_t e = 0; e < serial.events.size(); ++e) {
        EXPECT_EQ(parallel.events[e].epoch, serial.events[e].epoch);
        for (size_t i = 0; i < 3; ++i) {
            const chip::CoreAllocation &a = serial.events[e].alloc[i];
            const chip::CoreAllocation &b = parallel.events[e].alloc[i];
            EXPECT_EQ(b.ways, a.ways);
            EXPECT_EQ(b.wayMask, a.wayMask);
            EXPECT_EQ(b.ipsTarget, a.ipsTarget);
            EXPECT_EQ(b.powerTarget, a.powerTarget);
            EXPECT_EQ(b.retarget, a.retarget);
        }
    }
}

TEST(ChipEquivalence, ParallelCoresMatchSerialRunAtAnyThreadCount)
{
    const ChipOutcome serial = threeCoreChipRun(true, 1);
    ASSERT_EQ(serial.events.size(), 2u);
    EXPECT_EQ(serial.events[0].epoch, 50u);
    EXPECT_EQ(serial.events[1].epoch, 100u);
    for (unsigned threads : {2u, 3u, 8u}) {
        SCOPED_TRACE(threads);
        expectSameOutcome(serial, threeCoreChipRun(true, threads));
    }
}

TEST(ChipEquivalence, ParallelArbiterOffChipIsOneStretch)
{
    const ChipOutcome serial = threeCoreChipRun(false, 1);
    EXPECT_TRUE(serial.events.empty());
    expectSameOutcome(serial, threeCoreChipRun(false, 3));
}

TEST(ChipEquivalence, CanceledParallelRunThrows)
{
    CancellationToken cancel;
    cancel.requestCancel();
    EXPECT_THROW(threeCoreChipRun(true, 4, &cancel), CanceledError);
}

} // namespace
} // namespace mimoarch
