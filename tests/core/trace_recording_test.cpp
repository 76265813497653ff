/**
 * @file
 * The recording contract of DriverConfig::recordTrace: the flag
 * decides only which per-epoch series the EpochDriver keeps. The same
 * job run with the flag off and on has the same summary, bit for bit,
 * and the same two knob series (finish() derives the steady epochs
 * from them, so they are always recorded); with the flag off the other
 * eight series are never reserved. Three loops: MIMO with the
 * optimizer at cycle level and at analytic fidelity, and MIMO on a
 * fault-injecting plant, whose sensed and true outputs differ.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/design_flow.hpp"
#include "core/harness.hpp"
#include "exec/design_cache.hpp"
#include "exec/plant_factory.hpp"
#include "robustness/fault_plant.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

struct Loop
{
    const char *app;
    bool optimizer = false;
    PlantFidelity fidelity = PlantFidelity::CycleLevel;
    bool faults = false; //!< Sensor and actuator faults on the plant.
    size_t epochs = 600;
};

/** What one run leaves behind, read before its driver goes. */
struct Recorded
{
    uint64_t summary = 0;
    std::vector<unsigned> freqLevel;
    std::vector<unsigned> cacheSetting;
    size_t otherSizes = 0;      //!< Summed sizes of the other eight series.
    size_t otherCapacities = 0; //!< Summed capacities of the same.
    bool sensedDiffersFromTrue = false;
};

ExperimentConfig
loopConfig(PlantFidelity fidelity)
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 300;
    cfg.validationEpochsPerApp = 150;
    cfg.fidelity = fidelity;
    return cfg;
}

FaultScheduleConfig
faultMix()
{
    FaultScheduleConfig f;
    f.enabled = true;
    f.seed = 17;
    f.sensorFaultRate = 0.03;
    f.actuatorFaultRate = 0.01;
    return f;
}

Recorded
runLoop(const Loop &c, bool record_trace)
{
    const ExperimentConfig cfg = loopConfig(c.fidelity);
    const KnobSpace knobs(false);
    const auto design = exec::DesignCache::instance().design(knobs, cfg);
    auto controller = MimoControllerDesign(knobs, cfg).buildController(*design);
    controller->setReference(cfg.ipsReference, cfg.powerReference);
    const auto honest =
        exec::makePlant(Spec2006Suite::byName(c.app), knobs, cfg);
    std::unique_ptr<FaultyPlant> faulty;
    if (c.faults)
        faulty = std::make_unique<FaultyPlant>(*honest, faultMix());
    Plant &plant = faulty ? static_cast<Plant &>(*faulty) : *honest;

    DriverConfig dcfg;
    dcfg.epochs = c.epochs;
    dcfg.errorSkipEpochs = 100;
    dcfg.useOptimizer = c.optimizer;
    dcfg.optimizer.metricExponent = 2;
    dcfg.fidelity = c.fidelity;
    dcfg.recordTrace = record_trace;
    EpochDriver driver(plant, *controller, dcfg);
    KnobSettings init;
    init.freqLevel = 3;
    init.cacheSetting = 1;
    const RunSummary sum = driver.run(init);

    const EpochTrace &t = driver.trace();
    Recorded r;
    r.summary = digest(sum);
    r.freqLevel = t.freqLevel;
    r.cacheSetting = t.cacheSetting;
    const auto tally = [&r](const auto &series) {
        r.otherSizes += series.size();
        r.otherCapacities += series.capacity();
    };
    tally(t.ips);
    tally(t.power);
    tally(t.trueIps);
    tally(t.truePower);
    tally(t.refIps);
    tally(t.refPower);
    tally(t.robPartitions);
    tally(t.tier);
    for (size_t i = 0; i < t.ips.size(); ++i)
        r.sensedDiffersFromTrue |= !(t.ips[i] == t.trueIps[i]);
    return r;
}

/** The flag changes what is kept and nothing else. */
Recorded
expectSameRunEitherWay(const Loop &c)
{
    const Recorded off = runLoop(c, false);
    const Recorded on = runLoop(c, true);
    EXPECT_EQ(off.summary, on.summary);
    EXPECT_EQ(off.freqLevel.size(), c.epochs);
    EXPECT_EQ(off.freqLevel, on.freqLevel);
    EXPECT_EQ(off.cacheSetting, on.cacheSetting);
    EXPECT_EQ(off.otherCapacities, 0u);
    EXPECT_EQ(on.otherSizes, 8 * c.epochs);
    return on;
}

TEST(TraceRecording, MimoWithOptimizerAtCycleLevel)
{
    expectSameRunEitherWay({.app = "gamess", .optimizer = true});
}

TEST(TraceRecording, MimoWithOptimizerAtAnalyticFidelity)
{
    expectSameRunEitherWay({.app = "milc", .optimizer = true,
                            .fidelity = PlantFidelity::Analytic,
                            .epochs = 3000});
}

TEST(TraceRecording, FaultInjectingPlant)
{
    const Recorded on =
        expectSameRunEitherWay({.app = "mcf", .faults = true});
    EXPECT_TRUE(on.sensedDiffersFromTrue)
        << "the faults never reached the sensors";
}

} // namespace
} // namespace mimoarch
