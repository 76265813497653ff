/**
 * @file
 * Unit tests for the analytic plant tier (DESIGN.md §13): calibration
 * determinism, seed-deterministic trajectories, floor clamping,
 * accounting, and the fidelity selector's fingerprint contract.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/experiment_config.hpp"
#include "core/knobs.hpp"
#include "plant/surrogate.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

ExperimentConfig
testConfig()
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 300;
    cfg.validationEpochsPerApp = 150;
    return cfg;
}

const SurrogateModel &
cachedModel()
{
    static const SurrogateModel model = calibrateSurrogate(
        Spec2006Suite::byName("namd"), KnobSpace(false), testConfig());
    return model;
}

TEST(SurrogateCalibration, IsAPureFunctionOfItsInputs)
{
    const KnobSpace knobs(false);
    const ExperimentConfig cfg = testConfig();
    const SurrogateModel a = calibrateSurrogate(
        Spec2006Suite::byName("sjeng"), knobs, cfg);
    const SurrogateModel b = calibrateSurrogate(
        Spec2006Suite::byName("sjeng"), knobs, cfg);
    EXPECT_EQ(a.digest(), b.digest());

    // A different app calibrates to a different surface.
    const SurrogateModel c = calibrateSurrogate(
        Spec2006Suite::byName("mcf"), knobs, cfg);
    EXPECT_NE(a.digest(), c.digest());
}

TEST(SurrogateCalibration, DigestIsPinned)
{
    // Every bit of a calibration, pinned: a change to the experiment,
    // the fit or the sensors it fits moves these.
    const KnobSpace knobs(false);
    const ExperimentConfig cfg = testConfig();
    EXPECT_EQ(calibrateSurrogate(Spec2006Suite::byName("gamess"), knobs,
                                 cfg).digest(),
              0xdbc792804fc5f896ull);
    EXPECT_EQ(calibrateSurrogate(Spec2006Suite::byName("mcf"), knobs,
                                 cfg).digest(),
              0xebfa076ad8ee1997ull);
}

TEST(SurrogateCalibration, ProducesUsableAuxiliaryFits)
{
    const SurrogateModel &m = cachedModel();
    EXPECT_EQ(m.noiseSigma.size(), kNumPlantOutputs);
    for (double s : m.noiseSigma) {
        EXPECT_TRUE(std::isfinite(s));
        EXPECT_GE(s, 0.0);
    }
    EXPECT_GT(m.ipcPerIpsOverFreq, 0.0);
    EXPECT_GT(m.energyPerPowerSecond, 0.0);
    // Energy-per-epoch coefficient should land near epochSeconds
    // (energy ~= power x epoch); an order-of-magnitude window keeps
    // this robust to per-app fit wiggle.
    EXPECT_GT(m.energyPerPowerSecond, m.epochSeconds / 10.0);
    EXPECT_LT(m.energyPerPowerSecond, m.epochSeconds * 10.0);
    EXPECT_GT(m.ipsFloor, 0.0);
    EXPECT_GT(m.powerFloor, 0.0);
    ASSERT_EQ(m.l2Coef.rows(), 3u); // 1 + 2 inputs.
    // The fit report exists for both outputs.
    EXPECT_EQ(m.fit.meanRelError.size(), kNumPlantOutputs);
}

TEST(SurrogatePlant, TrajectoriesAreSeedDeterministic)
{
    const KnobSpace knobs(false);
    auto model = std::make_shared<const SurrogateModel>(cachedModel());
    SurrogatePlant a(model, knobs, 7);
    SurrogatePlant b(model, knobs, 7);
    SurrogatePlant other(model, knobs, 8);

    KnobSettings s;
    bool any_salt_difference = false;
    for (size_t t = 0; t < 200; ++t) {
        s.freqLevel = static_cast<unsigned>(t % 16);
        s.cacheSetting = static_cast<unsigned>(t % 4);
        const Matrix &ya = a.step(s);
        const Matrix &yb = b.step(s);
        const Matrix &yo = other.step(s);
        ASSERT_EQ(ya[kOutputIps], yb[kOutputIps]) << "epoch " << t;
        ASSERT_EQ(ya[kOutputPower], yb[kOutputPower]) << "epoch " << t;
        if (ya[kOutputIps] != yo[kOutputIps])
            any_salt_difference = true;
    }
    EXPECT_EQ(a.totalEnergyJoules(), b.totalEnergyJoules());
    EXPECT_EQ(a.totalInstructionsB(), b.totalInstructionsB());
    EXPECT_EQ(a.lastL2Mpki(), b.lastL2Mpki());
    EXPECT_EQ(a.lastIpc(), b.lastIpc());
    // Distinct salts must decorrelate the noise streams.
    EXPECT_TRUE(any_salt_difference);
}

TEST(SurrogatePlant, OutputsRespectFloorsAndAuxSensorsStayFinite)
{
    const KnobSpace knobs(false);
    auto model = std::make_shared<const SurrogateModel>(cachedModel());
    SurrogatePlant plant(model, knobs, 0);
    KnobSettings lowest;
    lowest.freqLevel = 0;
    lowest.cacheSetting = 0;
    for (size_t t = 0; t < 500; ++t) {
        const Matrix &y = plant.step(lowest);
        EXPECT_GE(y[kOutputIps], model->ipsFloor);
        EXPECT_GE(y[kOutputPower], model->powerFloor);
        EXPECT_TRUE(std::isfinite(plant.lastL2Mpki()));
        EXPECT_GE(plant.lastL2Mpki(), 0.0);
        EXPECT_TRUE(std::isfinite(plant.lastIpc()));
        EXPECT_TRUE(std::isfinite(plant.lastEnergyJoules()));
        EXPECT_GT(plant.lastEnergyJoules(), 0.0);
    }
}

TEST(SurrogatePlant, AccountingAccumulatesExactly)
{
    const KnobSpace knobs(false);
    auto model = std::make_shared<const SurrogateModel>(cachedModel());
    SurrogatePlant plant(model, knobs, 3);
    double instr = 0.0, energy = 0.0, elapsed = 0.0;
    KnobSettings s;
    const size_t epochs = 128;
    for (size_t t = 0; t < epochs; ++t) {
        const Matrix &y = plant.step(s);
        instr += y[kOutputIps] * model->epochSeconds;
        energy += plant.lastEnergyJoules();
        elapsed += model->epochSeconds;
    }
    // Same-order accumulation: bit-exact. (The product form differs by
    // a few ULPs, which is why it is only NEAR.)
    EXPECT_EQ(plant.elapsedSeconds(), elapsed);
    EXPECT_NEAR(plant.elapsedSeconds(),
                static_cast<double>(epochs) * model->epochSeconds,
                1e-12);
    EXPECT_EQ(plant.totalInstructionsB(), instr);
    EXPECT_EQ(plant.totalEnergyJoules(), energy);
}

TEST(KnobSpace, ToVectorIntoMatchesToVector)
{
    for (bool rob : {false, true}) {
        const KnobSpace knobs(rob);
        Matrix out;
        for (unsigned f = 0; f < 16; ++f) {
            for (unsigned c = 0; c < 4; ++c) {
                for (unsigned r = 1; r <= 8; ++r) {
                    KnobSettings s;
                    s.freqLevel = f;
                    s.cacheSetting = c;
                    s.robPartitions = r;
                    const Matrix ref = knobs.toVector(s);
                    knobs.toVectorInto(out, s);
                    ASSERT_EQ(out.rows(), ref.rows());
                    for (size_t i = 0; i < ref.rows(); ++i)
                        ASSERT_EQ(out[i], ref[i]);
                }
            }
        }
    }
}

TEST(PlantFidelity, SelectsFingerprintButNotDesignFingerprint)
{
    ExperimentConfig cycle = testConfig();
    ExperimentConfig analytic = testConfig();
    analytic.fidelity = PlantFidelity::Analytic;
    EXPECT_NE(cycle.fingerprint(), analytic.fingerprint());
    EXPECT_EQ(cycle.designFingerprint(), analytic.designFingerprint());
    EXPECT_EQ(cycle.fingerprint(), cycle.designFingerprint());
}

} // namespace
} // namespace mimoarch
