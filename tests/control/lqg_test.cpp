/**
 * @file
 * LQG servo controller tests on known synthetic plants: reference
 * tracking, offset-free behaviour under model mismatch (the integral
 * action), MIMO coordination, weight semantics (the paper's Q/R
 * intuition), saturation handling, and the overhead claims.
 */

#include <limits>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "control/lqg.hpp"

namespace mimoarch {
namespace {

/** A simple stable 2-input 2-output coupled plant. */
StateSpaceModel
coupledPlant()
{
    StateSpaceModel m;
    m.a = Matrix{{0.7, 0.1}, {0.05, 0.6}};
    m.b = Matrix{{0.5, 0.2}, {0.1, 0.6}};
    m.c = Matrix{{1.0, 0.3}, {0.2, 1.0}};
    m.d = Matrix{{0.1, 0.0}, {0.0, 0.1}};
    m.qn = Matrix::identity(2) * 1e-4;
    m.rn = Matrix::identity(2) * 1e-4;
    m.inputScaling = SignalScaling::identity(2);
    m.outputScaling = SignalScaling::identity(2);
    return m;
}

LqgWeights
defaultWeights2x2()
{
    LqgWeights w;
    w.outputWeights = {1.0, 1.0};
    w.inputWeights = {0.1, 0.1};
    return w;
}

InputLimits
wideLimits(size_t n)
{
    InputLimits lim;
    lim.lo.assign(n, -100.0);
    lim.hi.assign(n, 100.0);
    return lim;
}

/** Narrow limits: at u = hi the coupled plant settles near (11, 9.7),
 *  so a (40, 40) reference is unreachable. */
InputLimits
paperLimits()
{
    InputLimits lim;
    lim.lo = {0.5, 1.0};
    lim.hi = {2.0, 4.0};
    return lim;
}

/** True when some input of @p u sits on a limit of @p lim. */
bool
atRail(const Matrix &u, const InputLimits &lim)
{
    for (size_t i = 0; i < u.rows(); ++i) {
        if (u[i] == lim.lo[i] || u[i] == lim.hi[i])
            return true;
    }
    return false;
}

/** Closed-loop run against a (possibly perturbed) simulation plant. */
struct SimLoop
{
    Matrix x;
    StateSpaceModel plant;

    explicit SimLoop(const StateSpaceModel &p)
        : x(p.stateDim(), 1), plant(p)
    {}

    Matrix
    observe(const Matrix &u) const
    {
        return plant.c * x + plant.d * u;
    }

    void
    advance(const Matrix &u)
    {
        x = plant.a * x + plant.b * u;
    }
};

TEST(Lqg, TracksConstantReferenceExactPlant)
{
    const StateSpaceModel plant = coupledPlant();
    LqgServoController ctrl(plant, defaultWeights2x2(), wideLimits(2));
    const Matrix y0 = Matrix::vector({1.0, -0.5});
    ctrl.setReference(y0);

    SimLoop sim(plant);
    Matrix u(2, 1);
    for (int t = 0; t < 300; ++t) {
        const Matrix y = sim.observe(u);
        u = ctrl.step(y);
        sim.advance(u);
    }
    const Matrix y_final = sim.observe(u);
    EXPECT_NEAR(y_final[0], 1.0, 1e-3);
    EXPECT_NEAR(y_final[1], -0.5, 1e-3);
}

TEST(Lqg, OffsetFreeUnderGainMismatch)
{
    // Controller designed on the nominal plant; the real plant has 25%
    // stronger gains. The integrator must remove the steady-state error.
    const StateSpaceModel nominal = coupledPlant();
    StateSpaceModel real_plant = nominal;
    real_plant.b = nominal.b * 1.25;

    LqgServoController ctrl(nominal, defaultWeights2x2(), wideLimits(2));
    const Matrix y0 = Matrix::vector({0.8, 0.4});
    ctrl.setReference(y0);

    SimLoop sim(real_plant);
    Matrix u(2, 1);
    for (int t = 0; t < 600; ++t) {
        const Matrix y = sim.observe(u);
        u = ctrl.step(y);
        sim.advance(u);
    }
    const Matrix y_final = sim.observe(u);
    EXPECT_NEAR(y_final[0], 0.8, 5e-3);
    EXPECT_NEAR(y_final[1], 0.4, 5e-3);
}

TEST(Lqg, RejectsConstantDisturbance)
{
    const StateSpaceModel plant = coupledPlant();
    LqgServoController ctrl(plant, defaultWeights2x2(), wideLimits(2));
    ctrl.setReference(Matrix::vector({0.5, 0.5}));

    SimLoop sim(plant);
    const Matrix dist = Matrix::vector({0.2, -0.1});
    Matrix u(2, 1);
    for (int t = 0; t < 800; ++t) {
        const Matrix y = sim.observe(u) + dist; // output disturbance
        u = ctrl.step(y);
        sim.advance(u);
    }
    const Matrix y_final = sim.observe(u) + dist;
    EXPECT_NEAR(y_final[0], 0.5, 1e-2);
    EXPECT_NEAR(y_final[1], 0.5, 1e-2);
}

TEST(Lqg, HigherOutputWeightGivesSmallerErrorForThatOutput)
{
    // The paper's Q intuition (power weighted 1000:1 over IPS): under a
    // plant/model mismatch that prevents perfect tracking of both
    // outputs, the heavily weighted output ends up closer to target.
    const StateSpaceModel nominal = coupledPlant();
    // A mismatched real plant with rank-deficient-ish effectiveness:
    // both inputs act almost identically, so the two outputs cannot be
    // controlled independently.
    StateSpaceModel real_plant = nominal;
    real_plant.b = Matrix{{0.5, 0.45}, {0.5, 0.45}};
    real_plant.c = Matrix{{1.0, 0.3}, {0.2, 1.0}};

    const auto errors_for = [&](double w0, double w1) {
        LqgWeights w;
        w.outputWeights = {w0, w1};
        w.inputWeights = {0.1, 0.1};
        LqgServoController ctrl(nominal, w, wideLimits(2));
        ctrl.setReference(Matrix::vector({1.0, -1.0}));
        SimLoop sim(real_plant);
        Matrix u(2, 1);
        for (int t = 0; t < 1500; ++t) {
            const Matrix y = sim.observe(u);
            u = ctrl.step(y);
            sim.advance(u);
        }
        const Matrix y_final = sim.observe(u);
        return std::make_pair(std::abs(y_final[0] - 1.0),
                              std::abs(y_final[1] + 1.0));
    };

    const auto [e0_hi, e1_hi] = errors_for(100.0, 1.0);
    const auto [e0_lo, e1_lo] = errors_for(1.0, 100.0);
    // Weighting output 0 more reduces its error relative to the
    // opposite weighting.
    EXPECT_LT(e0_hi, e0_lo);
    EXPECT_LT(e1_lo, e1_hi);
}

TEST(Lqg, HigherInputWeightMovesThatInputLess)
{
    // The paper's R intuition: an expensive input changes less.
    const StateSpaceModel plant = coupledPlant();
    const auto input_travel = [&](double w0, double w1) {
        LqgWeights w;
        w.outputWeights = {1.0, 1.0};
        w.inputWeights = {w0, w1};
        LqgServoController ctrl(plant, w, wideLimits(2));
        ctrl.setReference(Matrix::vector({1.0, 0.5}));
        SimLoop sim(plant);
        Matrix u(2, 1);
        double travel0 = 0.0;
        Matrix u_prev(2, 1);
        for (int t = 0; t < 200; ++t) {
            const Matrix y = sim.observe(u);
            u = ctrl.step(y);
            travel0 += std::abs(u[0] - u_prev[0]);
            u_prev = u;
            sim.advance(u);
        }
        return travel0;
    };
    EXPECT_GT(input_travel(0.01, 10.0), input_travel(10.0, 0.01));
}

TEST(Lqg, SaturationRespected)
{
    const StateSpaceModel plant = coupledPlant();
    InputLimits lim;
    lim.lo = {-0.2, -0.2};
    lim.hi = {0.2, 0.2};
    LqgServoController ctrl(plant, defaultWeights2x2(), lim);
    ctrl.setReference(Matrix::vector({5.0, 5.0})); // unreachable
    SimLoop sim(plant);
    Matrix u(2, 1);
    for (int t = 0; t < 100; ++t) {
        const Matrix y = sim.observe(u);
        u = ctrl.step(y);
        EXPECT_LE(u[0], 0.2 + 1e-12);
        EXPECT_GE(u[0], -0.2 - 1e-12);
        sim.advance(u);
    }
}

TEST(Lqg, AntiWindupRecoversQuicklyAfterSaturation)
{
    const StateSpaceModel plant = coupledPlant();
    InputLimits lim;
    lim.lo = {-0.3, -0.3};
    lim.hi = {0.3, 0.3};
    LqgServoController ctrl(plant, defaultWeights2x2(), lim);
    SimLoop sim(plant);
    Matrix u(2, 1);
    // Saturate hard for a while.
    ctrl.setReference(Matrix::vector({10.0, 10.0}));
    for (int t = 0; t < 200; ++t) {
        u = ctrl.step(sim.observe(u));
        sim.advance(u);
    }
    // Now ask for something reachable; it should settle fast.
    ctrl.setReference(Matrix::vector({0.2, 0.1}));
    int settle = -1;
    for (int t = 0; t < 400; ++t) {
        const Matrix y = sim.observe(u);
        u = ctrl.step(y);
        sim.advance(u);
        if (settle < 0 && std::abs(y[0] - 0.2) < 0.02 &&
            std::abs(y[1] - 0.1) < 0.02) {
            settle = t;
        }
    }
    ASSERT_GE(settle, 0) << "never settled after saturation";
    EXPECT_LT(settle, 250);
}

TEST(Lqg, NoisyMeasurementsStillConverge)
{
    StateSpaceModel plant = coupledPlant();
    LqgServoController ctrl(plant, defaultWeights2x2(), wideLimits(2));
    ctrl.setReference(Matrix::vector({1.0, -0.5}));
    SimLoop sim(plant);
    Rng rng(9);
    Matrix u(2, 1);
    double err_late = 0.0;
    for (int t = 0; t < 600; ++t) {
        Matrix y = sim.observe(u);
        y[0] += rng.normal(0.0, 0.01);
        y[1] += rng.normal(0.0, 0.01);
        u = ctrl.step(y);
        sim.advance(u);
        if (t >= 500) {
            const Matrix y_true = sim.observe(u);
            err_late += std::abs(y_true[0] - 1.0) +
                std::abs(y_true[1] + 0.5);
        }
    }
    EXPECT_LT(err_late / 100.0, 0.08);
}

TEST(Lqg, MoreOutputsThanInputsIsFatal)
{
    StateSpaceModel m;
    m.a = Matrix{{0.5}};
    m.b = Matrix{{1.0}};
    m.c = Matrix{{1.0}, {2.0}}; // two outputs, one input
    m.d = Matrix(2, 1);
    m.inputScaling = SignalScaling::identity(1);
    m.outputScaling = SignalScaling::identity(2);
    LqgWeights w;
    w.outputWeights = {1.0, 1.0};
    w.inputWeights = {1.0};
    EXPECT_EXIT(LqgServoController(m, w, wideLimits(1)),
                testing::ExitedWithCode(1), "cannot exceed");
}

TEST(Lqg, StoredFloatsMatchOverheadClaim)
{
    // The paper: "the controller only stores less than 100
    // floating-point numbers" for the 2-input, dimension-4 system.
    StateSpaceModel m;
    m.a = Matrix::identity(4) * 0.5;
    m.b = Matrix{{0.3, 0.1}, {0.1, 0.4}, {0.2, 0.0}, {0.0, 0.2}};
    m.c = Matrix{{0.5, 0.1, 0.2, 0.0}, {0.1, 0.6, 0.0, 0.2}};
    m.d = Matrix(2, 2);
    m.qn = Matrix::identity(4) * 1e-3;
    m.rn = Matrix::identity(2) * 1e-3;
    m.inputScaling = SignalScaling::identity(2);
    m.outputScaling = SignalScaling::identity(2);
    LqgWeights w;
    w.outputWeights = {1000.0, 1.0};
    w.inputWeights = {0.01, 0.0005};
    LqgServoController ctrl(m, w, wideLimits(2));
    EXPECT_LT(ctrl.storedFloats(), 100u);
}

/**
 * micro_overhead's BM_LqgControllerStep set-up: a representative
 * identified dimension-4 model with the bench's weights, driven by a
 * fixed measurement. Returns the sum of u[0] over 500 000 steps taken
 * after 1000 warm-up steps.
 */
double
dim4StepChecksum(const InputLimits &lim, const Matrix &reference)
{
    StateSpaceModel m;
    m.a = Matrix{{0.55, 0.2, 0.1, 0.0},
                 {0.1, 0.5, 0.0, 0.1},
                 {0.05, 0.0, 0.4, 0.1},
                 {0.0, 0.05, 0.1, 0.35}};
    m.b = Matrix{{0.4, 0.1}, {0.2, 0.3}, {0.1, 0.05}, {0.05, 0.1}};
    m.c = Matrix{{1.0, 0.0, 0.2, 0.1}, {0.0, 1.0, 0.1, 0.2}};
    m.d = Matrix{{0.1, 0.02}, {0.15, 0.01}};
    m.qn = Matrix::identity(4) * 1e-3;
    m.rn = Matrix::identity(2) * 1e-2;
    m.inputScaling = SignalScaling::identity(2);
    m.outputScaling = SignalScaling::identity(2);
    LqgWeights w;
    w.outputWeights = {10.0, 10000.0};
    w.inputWeights = {1000.0, 50.0};
    LqgServoController ctrl(m, w, lim);
    ctrl.setReference(reference);
    const Matrix y = Matrix::vector({1.8, 1.9});
    for (int i = 0; i < 1000; ++i)
        ctrl.step(y);
    double sum = 0.0;
    for (int i = 0; i < 500000; ++i)
        sum += ctrl.step(y)[0];
    return sum;
}

// Bit-exact pins of the step's arithmetic over a long run: any change
// to what the step computes, or in what order, moves these sums.

TEST(Lqg, SaturatedStepChecksumIsPinned)
{
    // Reference off the measurement with tight limits: an input clips
    // every step, so the anti-windup branch runs throughout.
    EXPECT_EQ(dim4StepChecksum(paperLimits(), Matrix::vector({2.0, 2.0})),
              974022.82798527787);
}

TEST(Lqg, SteadyStepChecksumIsPinned)
{
    // Reference equal to the measurement with wide limits: zero error,
    // and the commands settle at an interior fixed point.
    InputLimits lim;
    lim.lo = {-50.0, -50.0};
    lim.hi = {50.0, 50.0};
    EXPECT_EQ(dim4StepChecksum(lim, Matrix::vector({1.8, 1.9})),
              187527.02400202927);
}

TEST(Lqg, ControllerRealizationIsStrictlyProper)
{
    const StateSpaceModel plant = coupledPlant();
    LqgServoController ctrl(plant, defaultWeights2x2(), wideLimits(2));
    const StateSpaceModel k = ctrl.controllerRealization();
    EXPECT_EQ(k.d.maxAbs(), 0.0);
    EXPECT_EQ(k.numInputs(), plant.numOutputs());
    EXPECT_EQ(k.numOutputs(), plant.numInputs());
    EXPECT_EQ(k.stateDim(), plant.stateDim() + 2 + 2);
}

TEST(Lqg, ReferenceChangeRetargets)
{
    const StateSpaceModel plant = coupledPlant();
    LqgServoController ctrl(plant, defaultWeights2x2(), wideLimits(2));
    SimLoop sim(plant);
    Matrix u(2, 1);
    ctrl.setReference(Matrix::vector({0.5, 0.5}));
    for (int t = 0; t < 300; ++t) {
        u = ctrl.step(sim.observe(u));
        sim.advance(u);
    }
    ctrl.setReference(Matrix::vector({-0.5, 1.0}));
    for (int t = 0; t < 400; ++t) {
        u = ctrl.step(sim.observe(u));
        sim.advance(u);
    }
    const Matrix y = sim.observe(u);
    EXPECT_NEAR(y[0], -0.5, 1e-2);
    EXPECT_NEAR(y[1], 1.0, 1e-2);
}

TEST(Lqg, NonFiniteMeasurementIsRejectedNotFatal)
{
    const StateSpaceModel plant = coupledPlant();
    LqgServoController ctrl(plant, defaultWeights2x2(), wideLimits(2));
    ctrl.setReference(Matrix::vector({1.0, -0.5}));

    SimLoop sim(plant);
    Matrix u(2, 1);
    for (int t = 0; t < 50; ++t) {
        u = ctrl.step(sim.observe(u));
        sim.advance(u);
    }
    const Matrix u_before = u;
    // A NaN and an Inf sample: the controller must hold its previous
    // command and keep its state finite, not abort or absorb them.
    Matrix bad = sim.observe(u);
    bad[0] = std::numeric_limits<double>::quiet_NaN();
    u = ctrl.step(bad);
    EXPECT_EQ(u[0], u_before[0]);
    EXPECT_EQ(u[1], u_before[1]);
    bad[0] = std::numeric_limits<double>::infinity();
    u = ctrl.step(bad);
    EXPECT_EQ(ctrl.rejectedMeasurements(), 2ul);
    EXPECT_TRUE(ctrl.stateFinite());
    // And the loop keeps tracking afterwards.
    for (int t = 0; t < 200; ++t) {
        u = ctrl.step(sim.observe(u));
        sim.advance(u);
    }
    const Matrix y = sim.observe(u);
    EXPECT_NEAR(y[0], 1.0, 1e-2);
    EXPECT_NEAR(y[1], -0.5, 1e-2);
}

TEST(Lqg, SpikeRaisesInnovationNorm)
{
    const StateSpaceModel plant = coupledPlant();
    LqgServoController ctrl(plant, defaultWeights2x2(), wideLimits(2));
    ctrl.setReference(Matrix::vector({1.0, -0.5}));

    SimLoop sim(plant);
    Matrix u(2, 1);
    for (int t = 0; t < 100; ++t) {
        u = ctrl.step(sim.observe(u));
        sim.advance(u);
    }
    const double settled = ctrl.lastInnovationNorm();
    Matrix spiked = sim.observe(u);
    spiked[0] *= 8.0; // The injector's default outlier magnitude.
    ctrl.step(spiked);
    // The supervisor keys off exactly this signal.
    EXPECT_GT(ctrl.lastInnovationNorm(), settled + 1.0);
    EXPECT_TRUE(ctrl.stateFinite());
}

TEST(Lqg, SaturationWatchdogTripsResetsStateAndCanBeDisabled)
{
    const InputLimits lim = paperLimits();
    const Matrix unreachable = Matrix::vector({40.0, 40.0});
    const Matrix far = Matrix::vector({1.0, 1.0}); // 97.5% error.
    LqgServoController ctrl(coupledPlant(), defaultWeights2x2(), lim);
    LqgServoController disabled = ctrl;
    ctrl.setSaturationWatchdog(5);
    disabled.setSaturationWatchdog(0);
    ctrl.setReference(unreachable);
    disabled.setReference(unreachable);

    // Only the fifth consecutive saturated large-error step trips;
    // an on-reference sample in between restarts the count.
    Matrix last;
    for (int t = 0; t < 4; ++t) {
        ASSERT_TRUE(atRail(ctrl.step(far), lim)) << "step " << t;
        disabled.step(far);
    }
    EXPECT_EQ(ctrl.watchdogTrips(), 0ul);
    ctrl.step(unreachable);
    disabled.step(unreachable);
    for (int t = 0; t < 5; ++t) {
        EXPECT_EQ(ctrl.watchdogTrips(), 0ul) << "step " << t;
        last = ctrl.step(far);
        ASSERT_TRUE(atRail(last, lim)) << "step " << t;
        disabled.step(far);
    }
    EXPECT_EQ(ctrl.watchdogTrips(), 1ul);

    // The trip zeroed the estimator and integrator: from here on the
    // controller is bit-identical to a fresh one reset at the last
    // applied command, while the never-tripping twin (same history,
    // watchdog disabled) still carries its state and steers elsewhere.
    LqgServoController fresh(coupledPlant(), defaultWeights2x2(), lim);
    fresh.reset(last);
    const Matrix reachable = Matrix::vector({7.0, 6.0});
    ctrl.setReference(reachable);
    fresh.setReference(reachable);
    disabled.setReference(reachable);
    bool steered_elsewhere = false;
    for (int t = 0; t < 20; ++t) {
        const Matrix u = ctrl.step(reachable);
        const Matrix &u_fresh = fresh.step(reachable);
        const Matrix &u_disabled = disabled.step(reachable);
        for (size_t i = 0; i < 2; ++i) {
            EXPECT_EQ(u[i], u_fresh[i]) << "step " << t << " input " << i;
            steered_elsewhere |= u[i] != u_disabled[i];
        }
    }
    EXPECT_TRUE(steered_elsewhere);

    // Disabled, it never trips, however long the saturation lasts.
    disabled.setReference(unreachable);
    for (int t = 0; t < 200; ++t)
        disabled.step(far);
    EXPECT_EQ(disabled.watchdogTrips(), 0ul);
}

TEST(Lqg, TryMakeReportsBadWeightsAsError)
{
    LqgWeights w;
    w.outputWeights = {1.0};       // Wrong length for a 2-output plant.
    w.inputWeights = {0.1, 0.1};
    const auto made =
        LqgServoController::tryMake(coupledPlant(), w, wideLimits(2));
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.error().code, ErrorCode::InvalidArgument);
    EXPECT_FALSE(made.error().message.empty());
}

TEST(Lqg, TryMakeSucceedsOnAGoodDesign)
{
    auto made = LqgServoController::tryMake(
        coupledPlant(), defaultWeights2x2(), wideLimits(2));
    ASSERT_TRUE(made.ok());
    LqgServoController ctrl = made.take();
    ctrl.setReference(Matrix::vector({1.0, -0.5}));
    SimLoop sim(coupledPlant());
    Matrix u(2, 1);
    for (int t = 0; t < 300; ++t) {
        u = ctrl.step(sim.observe(u));
        sim.advance(u);
    }
    EXPECT_NEAR(sim.observe(u)[0], 1.0, 1e-3);
}

} // namespace
} // namespace mimoarch
