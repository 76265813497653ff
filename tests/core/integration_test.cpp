/**
 * @file
 * End-to-end integration tests: the full Fig. 3 design flow on the
 * training set, closed-loop tracking with all architectures, the E x D
 * optimizer, and the QoE-driven time-varying tracking. The design is
 * built once in a shared fixture (identification experiments are the
 * expensive part).
 */

#include <gtest/gtest.h>

#include "core/design_flow.hpp"
#include "core/harness.hpp"
#include "exec/design_cache.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

/** The reduced-runtime configuration the integration tests share. */
ExperimentConfig
testConfig()
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 600; // reduced for test runtime
    cfg.validationEpochsPerApp = 300;
    return cfg;
}

/** One shared controller design for all integration tests, memoized in
 *  the process-wide DesignCache (so any other suite in the same binary
 *  asking for the same configuration shares it). */
class IntegrationFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        knobs_ = new KnobSpace(false);
        flow_ = new MimoControllerDesign(*knobs_, testConfig());
        design_ = exec::DesignCache::instance().design(*knobs_,
                                                       testConfig());
    }

    static void
    TearDownTestSuite()
    {
        design_.reset();
        delete flow_;
        delete knobs_;
    }

    static KnobSpace *knobs_;
    static MimoControllerDesign *flow_;
    static std::shared_ptr<const MimoDesignResult> design_;
};

KnobSpace *IntegrationFixture::knobs_ = nullptr;
MimoControllerDesign *IntegrationFixture::flow_ = nullptr;
std::shared_ptr<const MimoDesignResult> IntegrationFixture::design_;

TEST_F(IntegrationFixture, DesignProducesDimensionFourModel)
{
    EXPECT_EQ(design_->model.stateDim(), 4u); // Table III
    EXPECT_EQ(design_->model.numInputs(), 2u);
    EXPECT_EQ(design_->model.numOutputs(), 2u);
}

TEST_F(IntegrationFixture, ModelGainsHaveTheRightSigns)
{
    // DC gains: both knobs raise both outputs.
    const CMatrix g = design_->model.transferAt({1.0, 0.0});
    for (size_t r = 0; r < 2; ++r)
        for (size_t c = 0; c < 2; ++c)
            EXPECT_GT(g(r, c).real(), 0.0) << r << "," << c;
}

TEST_F(IntegrationFixture, RobustStabilityHolds)
{
    EXPECT_TRUE(design_->rsa.nominallyStable);
    EXPECT_TRUE(design_->rsa.robustlyStable);
    EXPECT_LT(design_->rsa.peakGain, 1.0);
}

TEST_F(IntegrationFixture, GuardbandsMatchTableIII)
{
    ASSERT_EQ(design_->guardbands.size(), 2u);
    EXPECT_DOUBLE_EQ(design_->guardbands[0], 0.50);
    EXPECT_DOUBLE_EQ(design_->guardbands[1], 0.30);
}

TEST_F(IntegrationFixture, MimoTracksResponsiveApp)
{
    auto ctrl = flow_->buildController(*design_);
    ctrl->setReference(2.0, 2.0);
    SimPlant plant(Spec2006Suite::byName("namd"), *knobs_);
    DriverConfig dcfg;
    dcfg.epochs = 1800;
    dcfg.errorSkipEpochs = 400;
    EpochDriver driver(plant, *ctrl, dcfg);
    KnobSettings init;
    init.freqLevel = 3;
    init.cacheSetting = 1;
    const RunSummary s = driver.run(init);
    EXPECT_LT(s.avgIpsErrorPct, 25.0);
    EXPECT_LT(s.avgPowerErrorPct, 15.0);
}

TEST_F(IntegrationFixture, PowerTrackedEvenForNonResponsiveApp)
{
    // mcf cannot reach the IPS target, but the power budget is
    // enforceable (Fig. 11(b): power errors stay moderate).
    auto ctrl = flow_->buildController(*design_);
    ctrl->setReference(2.0, 2.0);
    SimPlant plant(Spec2006Suite::byName("mcf"), *knobs_);
    DriverConfig dcfg;
    dcfg.epochs = 1500;
    dcfg.errorSkipEpochs = 400;
    EpochDriver driver(plant, *ctrl, dcfg);
    const RunSummary s = driver.run(KnobSettings{});
    EXPECT_GT(s.avgIpsErrorPct, 40.0); // genuinely unreachable
    EXPECT_LT(s.avgPowerErrorPct, 50.0);
}

TEST_F(IntegrationFixture, SteadyStateIsReached)
{
    auto ctrl = flow_->buildController(*design_);
    ctrl->setReference(2.0, 2.0);
    SimPlant plant(Spec2006Suite::byName("gamess"), *knobs_);
    DriverConfig dcfg;
    dcfg.epochs = 1800;
    EpochDriver driver(plant, *ctrl, dcfg);
    KnobSettings init;
    init.freqLevel = 3;
    init.cacheSetting = 1;
    const RunSummary s = driver.run(init);
    // The loop must leave the initial conditions and stop wandering:
    // either the harness detects a steady epoch, or the late-run
    // frequency band is narrow.
    if (s.steadyEpochFreq >= 0) {
        EXPECT_LT(s.steadyEpochFreq, 1500);
    } else {
        const auto &f = driver.trace().freqLevel;
        unsigned lo = 99, hi = 0;
        for (size_t i = f.size() - 400; i < f.size(); ++i) {
            lo = std::min(lo, f[i]);
            hi = std::max(hi, f[i]);
        }
        EXPECT_LE(hi - lo, 6u);
        EXPECT_GT(lo, 3u); // moved away from the initial level
    }
}

TEST_F(IntegrationFixture, DecoupledBuildsAndRuns)
{
    auto [c2i, f2p] = flow_->identifySisoModels(
        {Spec2006Suite::byName("sjeng"), Spec2006Suite::byName("namd")});
    EXPECT_EQ(c2i.numInputs(), 1u);
    EXPECT_EQ(f2p.numInputs(), 1u);
    auto dec = flow_->buildDecoupled(c2i, f2p);
    dec->setReference(2.0, 2.0);
    SimPlant plant(Spec2006Suite::byName("povray"), *knobs_);
    DriverConfig dcfg;
    dcfg.epochs = 800;
    EpochDriver driver(plant, *dec, dcfg);
    const RunSummary s = driver.run(KnobSettings{});
    EXPECT_GT(s.totalInstrB, 0.0);
}

TEST_F(IntegrationFixture, OptimizerImprovesExDOnCacheSensitiveApp)
{
    // dealII: the paper's poster child for cache-sensitivity. Compare
    // the optimizer-driven MIMO run against the fixed baseline.
    KnobSettings base;
    base.freqLevel = 8;
    base.cacheSetting = 2;

    SimPlant pb(Spec2006Suite::byName("dealII"), *knobs_);
    FixedController fixed(base);
    DriverConfig bcfg;
    bcfg.epochs = 1800;
    EpochDriver bd(pb, fixed, bcfg);
    const RunSummary bs = bd.run(base);

    auto ctrl = flow_->buildController(*design_);
    SimPlant pm(Spec2006Suite::byName("dealII"), *knobs_);
    DriverConfig mcfg;
    mcfg.epochs = 1800;
    mcfg.useOptimizer = true;
    mcfg.optimizer.metricExponent = 2;
    EpochDriver md(pm, *ctrl, mcfg);
    const RunSummary ms = md.run(base);

    EXPECT_LT(ms.exdMetric(2), bs.exdMetric(2));
}

TEST_F(IntegrationFixture, QoeScheduleLowersAchievedIps)
{
    auto ctrl = flow_->buildController(*design_);
    ctrl->setReference(2.0, 2.0);
    QoeBatteryConfig qcfg;
    qcfg.initialEnergyJoules = 0.15; // drains within the run
    qcfg.updatePeriodEpochs = 400;
    QoeBatteryModel battery(qcfg);
    SimPlant plant(Spec2006Suite::byName("astar"), *knobs_);
    DriverConfig dcfg;
    dcfg.epochs = 2400;
    dcfg.recordTrace = true;
    EpochDriver driver(plant, *ctrl, dcfg, &battery);
    driver.run(KnobSettings{});
    const EpochTrace &tr = driver.trace();
    // Targets must have stepped down and the plant followed.
    EXPECT_LT(tr.refIps.back(), tr.refIps.front());
    double early = 0, late = 0;
    for (int i = 200; i < 600; ++i)
        early += tr.ips[i];
    for (size_t i = tr.ips.size() - 400; i < tr.ips.size(); ++i)
        late += tr.ips[i];
    EXPECT_LT(late, early);
}

TEST_F(IntegrationFixture, ControllerOverheadWithinClaim)
{
    // §VI-C: fewer than 100 stored floats for the 2-input controller.
    LqgServoController lqg(design_->model, design_->weights,
                           InputLimits{knobs_->lowerLimits(),
                                       knobs_->upperLimits()});
    EXPECT_LT(lqg.storedFloats(), 100u);
}

} // namespace
} // namespace mimoarch
