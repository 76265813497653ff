/**
 * @file
 * End-to-end fault tests: the FaultyPlant decorator preserves the
 * truth, the epoch driver survives non-finite sensor epochs (counted,
 * settings held), and a SupervisedController rides out fault storms
 * on the real simulator that would poison a bare loop.
 */

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "core/harness.hpp"
#include "robustness/fault_plant.hpp"
#include "robustness/supervisor.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

FaultScheduleConfig
nanStorm(double rate)
{
    FaultScheduleConfig f;
    f.enabled = true;
    f.seed = 99;
    f.sensorFaultRate = rate;
    f.weightStuckAt = f.weightSpike = 0.0;
    f.weightDropout = f.weightDrift = 0.0; // NaN/Inf only
    return f;
}

TEST(FaultyPlant, PreservesTheTruth)
{
    KnobSpace knobs(false);
    SimPlant honest(Spec2006Suite::byName("namd"), knobs);
    FaultyPlant faulty(honest, nanStorm(1.0));
    const Matrix seen = faulty.step(KnobSettings{});
    const Matrix truth = faulty.lastTrueOutputs();
    // The controller-facing reading is corrupt; the truth is not.
    EXPECT_FALSE(std::isfinite(seen[0]) && std::isfinite(seen[1]));
    EXPECT_TRUE(std::isfinite(truth[0]) && std::isfinite(truth[1]));
    EXPECT_GT(truth[kOutputIps], 0.0);
}

TEST(FaultyPlant, HonestPlantReportsEmptyTruth)
{
    // The base Plant contract: empty truth means "same as step()".
    KnobSpace knobs(false);
    SimPlant honest(Spec2006Suite::byName("namd"), knobs);
    EXPECT_TRUE(honest.lastTrueOutputs().empty() ||
                honest.lastTrueOutputs().rows() == kNumPlantOutputs);
}

TEST(EpochDriver, SkipsAndCountsNonFiniteEpochs)
{
    KnobSpace knobs(false);
    SimPlant honest(Spec2006Suite::byName("gcc"), knobs);
    FaultyPlant faulty(honest, nanStorm(0.05));
    HeuristicArchController ctrl(knobs, {}, 2.0, 2.0);
    ctrl.setReference(2.0, 2.0);
    DriverConfig dcfg;
    dcfg.epochs = 600;
    dcfg.errorSkipEpochs = 100;
    EpochDriver driver(faulty, ctrl, dcfg);
    const RunSummary sum = driver.run(KnobSettings{});
    // The run finished, counted its skips, and still produced finite
    // error statistics because they score the *true* outputs.
    EXPECT_GT(sum.nonFiniteSkips, 0ul);
    EXPECT_TRUE(std::isfinite(sum.avgIpsErrorPct));
    EXPECT_TRUE(std::isfinite(sum.avgPowerErrorPct));
}

TEST(EpochDriver, FaultFreeRunHasNoSkips)
{
    KnobSpace knobs(false);
    SimPlant plant(Spec2006Suite::byName("gcc"), knobs);
    HeuristicArchController ctrl(knobs, {}, 2.0, 2.0);
    ctrl.setReference(2.0, 2.0);
    DriverConfig dcfg;
    dcfg.epochs = 300;
    EpochDriver driver(plant, ctrl, dcfg);
    EXPECT_EQ(driver.run(KnobSettings{}).nonFiniteSkips, 0ul);
}

StateSpaceModel
syntheticPlantModel()
{
    StateSpaceModel m;
    m.a = Matrix::diag({0.3, 0.3});
    m.b = Matrix{{0.7, 0.14}, {0.45, 0.07}};
    m.c = Matrix::identity(2);
    m.d = Matrix(2, 2);
    m.qn = Matrix::identity(2) * 1e-4;
    m.rn = Matrix::identity(2) * 1e-3;
    m.inputScaling = SignalScaling::identity(2);
    m.outputScaling = SignalScaling::identity(2);
    m.inputScaling.offset = {1.25, 2.5};
    m.inputScaling.scale = {0.45, 1.1};
    m.outputScaling.offset = {1.0, 1.2};
    m.outputScaling.scale = {0.5, 0.4};
    return m;
}

std::unique_ptr<SupervisedController>
makeSupervised(const KnobSpace &knobs,
               const LoopSupervisorConfig &sup_cfg = {})
{
    LqgWeights w;
    w.outputWeights = {10.0, 10000.0};
    w.inputWeights = {1000.0, 50.0};
    auto primary = std::make_unique<MimoArchController>(
        syntheticPlantModel(), w, knobs);
    auto fallback = std::make_unique<HeuristicArchController>(
        knobs, HeuristicArchController::Tuning{}, 2.0, 2.0);
    KnobSettings safe;
    safe.freqLevel = 8;
    safe.cacheSetting = 2;
    return std::make_unique<SupervisedController>(
        std::move(primary), std::move(fallback), safe,
        SensorSanitizer::archDefaults(), sup_cfg);
}

Observation
obsOf(double ips, double power)
{
    Observation o;
    o.y = Matrix::vector({ips, power});
    o.l2Mpki = 1.0;
    o.ipc = 1.5;
    return o;
}

TEST(SupervisedController, NominalOperationMatchesBareMimo)
{
    KnobSpace knobs(false);
    auto supervised = makeSupervised(knobs);
    supervised->setReference(2.0, 2.0);
    supervised->initialize(KnobSettings{});
    for (int i = 0; i < 50; ++i) {
        // Dithered like real sensor noise; an exactly constant stream
        // would (correctly) look like a frozen sensor.
        const double dither = 0.005 * (i % 4);
        const KnobSettings s =
            supervised->update(obsOf(1.9 + dither, 2.05 - dither));
        EXPECT_LE(s.freqLevel, 15u);
    }
    EXPECT_EQ(supervised->tier(), DegradationTier::Nominal);
    EXPECT_EQ(supervised->health().fallbackEntries, 0ul);
}

TEST(SupervisedController, SurvivesNanMeasurements)
{
    KnobSpace knobs(false);
    auto supervised = makeSupervised(knobs);
    supervised->setReference(2.0, 2.0);
    supervised->initialize(KnobSettings{});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int i = 0; i < 100; ++i) {
        const KnobSettings s = supervised->update(
            i % 3 == 0 ? obsOf(nan, 2.0) : obsOf(1.9, 2.0));
        EXPECT_LE(s.freqLevel, 15u);
    }
    // The sanitizer absorbed every NaN before the estimator saw it.
    EXPECT_GT(supervised->sanitizer().stats().nonFinite, 0ul);
    EXPECT_EQ(supervised->health().rejectedMeasurements, 0ul);
}

TEST(SupervisedController, PersistentRunawayWalksTheLadder)
{
    KnobSpace knobs(false);
    LoopSupervisorConfig sup_cfg;
    sup_cfg.trackingWindow = 10;
    sup_cfg.maxResets = 1;
    sup_cfg.probationEpochs = 50;
    auto supervised = makeSupervised(knobs, sup_cfg);
    supervised->setReference(2.0, 2.0);
    supervised->initialize(KnobSettings{});
    // Measurements pinned far from the reference: tracking error stays
    // above the runaway cut no matter what the controller commands.
    KnobSettings safe_expected;
    safe_expected.freqLevel = 8;
    safe_expected.cacheSetting = 2;
    KnobSettings s;
    for (int i = 0; i < 400; ++i)
        s = supervised->update(obsOf(0.2, 6.0));
    EXPECT_EQ(supervised->tier(), DegradationTier::SafePin);
    EXPECT_TRUE(s == safe_expected);
    const ControllerHealth h = supervised->health();
    EXPECT_GE(h.estimatorResets, 1ul);
    EXPECT_GE(h.fallbackEntries, 1ul);
    EXPECT_GE(h.safePins, 1ul);
    EXPECT_EQ(h.tier, 3u);
}

TEST(SupervisedController, SafePinRunsAreBitwiseDeterministic)
{
    // A run that walks the whole ladder — runaway into SafePin, then a
    // recovery phase — must be exactly reproducible: the supervised
    // loop carries no hidden nondeterminism (time, address-dependent
    // state) that faulted sweeps could leak into digests.
    const auto runOnce = []() -> std::pair<uint64_t, bool> {
        KnobSpace knobs(false);
        LoopSupervisorConfig sup_cfg;
        sup_cfg.trackingWindow = 10;
        sup_cfg.maxResets = 1;
        sup_cfg.probationEpochs = 20;
        auto supervised = makeSupervised(knobs, sup_cfg);
        supervised->setReference(2.0, 2.0);
        supervised->initialize(KnobSettings{});
        Fnv64 h;
        bool pinned = false;
        for (int i = 0; i < 400; ++i) {
            const double dither = 0.01 * (i % 5);
            const Observation o = i < 250
                                      ? obsOf(0.2, 6.0)
                                      : obsOf(2.0 + dither, 2.0 - dither);
            const KnobSettings s = supervised->update(o);
            h.u64(s.freqLevel).u64(s.cacheSetting).u64(s.robPartitions);
            pinned = pinned ||
                     supervised->tier() == DegradationTier::SafePin;
        }
        const ControllerHealth health = supervised->health();
        h.u64(health.tier)
            .u64(health.estimatorResets)
            .u64(health.fallbackEntries)
            .u64(health.safePins)
            .u64(health.repromotions);
        return {h.value(), pinned};
    };
    const auto [first, first_pinned] = runOnce();
    const auto [second, second_pinned] = runOnce();
    EXPECT_TRUE(first_pinned) << "the scenario must reach SafePin";
    EXPECT_TRUE(second_pinned);
    EXPECT_EQ(first, second);
}

/** The registry's supervisor.* counters this test reads. */
struct LadderCounters
{
    uint64_t estimatorResets = 0;
    uint64_t promotions = 0;
};

LadderCounters
ladderCounters()
{
    LadderCounters c;
    for (const auto &[name, value] : telemetry::registry().counters()) {
        if (name == "supervisor.estimator_resets")
            c.estimatorResets = value;
        else if (name == "supervisor.promotions")
            c.promotions = value;
    }
    return c;
}

TEST(SupervisedController, RecoveryRepromotesAfterProbation)
{
    const LadderCounters before = ladderCounters();
    KnobSpace knobs(false);
    LoopSupervisorConfig sup_cfg;
    sup_cfg.trackingWindow = 10;
    sup_cfg.maxResets = 1;
    sup_cfg.probationEpochs = 20;
    sup_cfg.probationMax = 80;
    auto supervised = makeSupervised(knobs, sup_cfg);
    supervised->setReference(2.0, 2.0);
    supervised->initialize(KnobSettings{});
    // Break the loop into Fallback...
    int guard = 0;
    while (supervised->tier() != DegradationTier::Fallback &&
           ++guard < 500) {
        supervised->update(obsOf(0.2, 6.0));
    }
    ASSERT_EQ(supervised->tier(), DegradationTier::Fallback);
    // ...then feed healthy measurements until probation promotes. The
    // dither keeps the stuck-sensor detector quiet, as real sensor
    // noise would.
    guard = 0;
    while (supervised->tier() != DegradationTier::Nominal &&
           ++guard < 500) {
        const double dither = 0.01 * (guard % 5);
        supervised->update(obsOf(2.0 + dither, 2.0 - dither));
    }
    EXPECT_EQ(supervised->tier(), DegradationTier::Nominal);
    EXPECT_GE(supervised->health().repromotions, 1ul);

    // The exported ladder counters equal the controller's own: a
    // Fallback->Nominal promotion re-initializes the servo but is not
    // an estimator reset.
    const ControllerHealth health = supervised->health();
    supervised.reset(); // publishes its counts
    const auto published = ladderCounters();
    EXPECT_EQ(published.estimatorResets - before.estimatorResets,
              health.estimatorResets);
    EXPECT_EQ(published.promotions - before.promotions,
              health.repromotions);
}

} // namespace
} // namespace mimoarch
