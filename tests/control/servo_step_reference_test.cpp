/**
 * @file
 * Bit-exactness oracle for the two per-epoch steps of the analytic
 * loop: LqgServoController::step and SurrogateDynamics::step, each
 * stepped in lock-step with a test-local copy of its gemv-based form
 * (one Matrix::gemv per product, every elementwise sum, difference and
 * scaling in its own pass over a full vector). The copies are the
 * arithmetic the golden-trace and checksum digests were recorded
 * with; the steps under test compute each output element in one pass
 * and must return the same doubles, bit for bit, on every step.
 *
 * Models are random and stable: state dimension 1-8, 1-3 inputs, at
 * most as many outputs as inputs, non-identity scalings and exact-zero
 * entries. References far outside the input limits force saturation,
 * so the anti-windup branch runs; non-finite measurements exercise the
 * rejection path; a short watchdog trips the re-initialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "control/lqg.hpp"
#include "linalg/leastsq.hpp"
#include "plant/surrogate.hpp"

namespace mimoarch {
namespace {

// ---- The gemv-based forms ------------------------------------------

/** out = a - b elementwise. */
void
subInto(Matrix &out, const Matrix &a, const Matrix &b)
{
    out.resizeShape(a.rows(), a.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        out[i] = a[i] - b[i];
}

/** out = a + b elementwise (out may alias a). */
void
addInto(Matrix &out, const Matrix &a, const Matrix &b)
{
    out.resizeShape(a.rows(), a.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        out[i] = a[i] + b[i];
}

/** y += alpha * x elementwise. */
void
axpy(Matrix &y, double alpha, const Matrix &x)
{
    for (size_t i = 0; i < y.rows(); ++i) {
        const double t = alpha * x[i];
        y[i] += t;
    }
}

/** (x - offset) / scale per channel. */
void
toScaledInto(const SignalScaling &s, Matrix &out, const Matrix &physical)
{
    out.resizeShape(s.channels(), 1);
    for (size_t i = 0; i < s.channels(); ++i)
        out[i] = (physical[i] - s.offset[i]) / s.scale[i];
}

/** x * scale + offset per channel. */
void
toPhysicalInto(const SignalScaling &s, Matrix &out, const Matrix &scaled)
{
    out.resizeShape(s.channels(), 1);
    for (size_t i = 0; i < s.channels(); ++i)
        out[i] = scaled[i] * s.scale[i] + s.offset[i];
}

/**
 * The servo's runtime half as a gemv chain over a workspace, on the
 * design (gains, model, limits) of an LqgServoController.
 */
class GemvServo
{
  public:
    GemvServo(const LqgServoController &designed, InputLimits limits)
        : model_(designed.model()), design_(designed.design()),
          limits_(std::move(limits))
    {}

    void
    setReference(const Matrix &y0_physical)
    {
        y0Physical_ = y0_physical;
        y0Scaled_ = model_.outputScaling.toScaled(y0_physical);
        const size_t n = model_.stateDim();
        const size_t m = model_.numInputs();
        const size_t p = model_.numOutputs();
        Matrix lhs(n + p, n + m);
        lhs.setBlock(0, 0, model_.a - Matrix::identity(n));
        lhs.setBlock(0, n, model_.b);
        lhs.setBlock(n, 0, model_.c);
        lhs.setBlock(n, n, model_.d);
        Matrix rhs(n + p, 1);
        rhs.setBlock(n, 0, y0Scaled_);
        const Matrix sol = solveRidge(lhs, rhs, 1e-9);
        xSs_ = sol.block(0, 0, n, 1);
        uSs_ = sol.block(n, 0, m, 1);
    }

    void
    reset(const Matrix &u_initial_physical)
    {
        xHat_ = Matrix(model_.stateDim(), 1);
        uPrev_ = model_.inputScaling.toScaled(u_initial_physical);
        zInt_ = Matrix(model_.numOutputs(), 1);
    }

    void setSaturationWatchdog(unsigned steps) { watchdogSteps_ = steps; }
    unsigned long watchdogTrips() const { return watchdogTrips_; }
    unsigned long rejectedMeasurements() const { return rejected_; }
    double lastInnovationNorm() const { return lastInnovationNorm_; }

    const Matrix &
    step(const Matrix &y_physical)
    {
        bool measurement_finite = true;
        for (size_t i = 0; i < y_physical.rows(); ++i)
            measurement_finite &= std::isfinite(y_physical[i]) != 0;
        if (!measurement_finite) {
            ++rejected_;
            toPhysicalInto(model_.inputScaling, uPhys_, uPrev_);
            return uPhys_;
        }

        toScaledInto(model_.outputScaling, yScaled_, y_physical);
        const Matrix &y = yScaled_;

        subInto(dx_, xHat_, xSs_);
        subInto(duPrev_, uPrev_, uSs_);
        Matrix::gemv(t1_, design_.kx, dx_);
        Matrix::gemv(t2_, design_.ku, duPrev_);
        Matrix::gemv(t3_, design_.kz, zInt_);
        u_.resizeShape(t1_.rows(), 1);
        for (size_t i = 0; i < u_.rows(); ++i) {
            const double neg = -t1_[i];
            const double vi1 = neg - t2_[i];
            const double vi = vi1 - t3_[i];
            u_[i] = uPrev_[i] + vi;
        }

        uUnsat_ = u_;
        toPhysicalInto(model_.inputScaling, uPhys_, u_);
        bool saturated = false;
        for (size_t i = 0; i < uPhys_.rows(); ++i) {
            if (uPhys_[i] < limits_.lo[i]) {
                uPhys_[i] = limits_.lo[i];
                saturated = true;
            } else if (uPhys_[i] > limits_.hi[i]) {
                uPhys_[i] = limits_.hi[i];
                saturated = true;
            }
        }
        toScaledInto(model_.inputScaling, u_, uPhys_);

        if (saturated) {
            subInto(awDiff_, uUnsat_, u_);
            Matrix::gemv(awCorr_, design_.kzPinv, awDiff_);
            axpy(zInt_, 0.1, awCorr_);
        }

        Matrix::gemv(cx_, model_.c, xHat_);
        Matrix::gemv(duFeed_, model_.d, u_);
        inno_.resizeShape(cx_.rows(), 1);
        for (size_t i = 0; i < inno_.rows(); ++i) {
            const double t = y[i] - cx_[i];
            inno_[i] = t - duFeed_[i];
        }
        lastInnovationNorm_ = inno_.frobeniusNorm();
        Matrix::gemv(ax_, model_.a, xHat_);
        Matrix::gemv(bu_, model_.b, u_);
        Matrix::gemv(li_, design_.kalmanGain, inno_);
        for (size_t i = 0; i < xHat_.rows(); ++i) {
            const double t = ax_[i] + bu_[i];
            xHat_[i] = t + li_[i];
        }

        if (!saturated) {
            for (size_t i = 0; i < zInt_.rows(); ++i) {
                const double t = y0Scaled_[i] - y[i];
                zInt_[i] += t;
            }
        }
        for (size_t i = 0; i < zInt_.rows(); ++i)
            zInt_[i] = std::clamp(zInt_[i], -100.0, 100.0);

        if (watchdogSteps_ > 0) {
            double rel_err = 0.0;
            for (size_t i = 0; i < y.rows(); ++i) {
                const double ref = y0Physical_[i];
                if (std::abs(ref) > 1e-12) {
                    rel_err = std::max(
                        rel_err,
                        std::abs(y_physical[i] - ref) / std::abs(ref));
                }
            }
            if (saturated && rel_err > 0.15)
                ++satStreak_;
            else
                satStreak_ = 0;
            if (satStreak_ >= watchdogSteps_) {
                satStreak_ = 0;
                ++watchdogTrips_;
                xHat_ = Matrix(xHat_.rows(), 1);
                zInt_ = Matrix(zInt_.rows(), 1);
            }
        }

        uPrev_ = u_;
        return uPhys_;
    }

  private:
    StateSpaceModel model_;
    LqgDesign design_;
    InputLimits limits_;
    Matrix y0Physical_, y0Scaled_, xSs_, uSs_;
    Matrix xHat_, uPrev_, zInt_;
    Matrix yScaled_, dx_, duPrev_, t1_, t2_, t3_, u_, uUnsat_, uPhys_;
    Matrix awDiff_, awCorr_, cx_, duFeed_, inno_, ax_, bu_, li_;
    unsigned watchdogSteps_ = 100;
    unsigned satStreak_ = 0;
    unsigned long watchdogTrips_ = 0;
    unsigned long rejected_ = 0;
    double lastInnovationNorm_ = 0.0;
};

/** The surrogate step as a gemv chain over scratch vectors. */
class GemvSurrogate
{
  public:
    GemvSurrogate(const SurrogateModel &model, uint64_t seed)
        : model_(&model), rng_(seed),
          x_(model.dynamics.stateDim(), 1)
    {}

    const Matrix &
    step(const Matrix &u_physical)
    {
        const StateSpaceModel &d = model_->dynamics;
        toScaledInto(d.inputScaling, uScaled_, u_physical);

        Matrix::gemv(yScaled_, d.c, x_);
        Matrix::gemv(tmpO_, d.d, uScaled_);
        addInto(yScaled_, yScaled_, tmpO_);
        for (size_t k = 0; k < model_->noiseSigma.size(); ++k)
            yScaled_[k] += model_->noiseSigma[k] * rng_.normal();

        Matrix::gemv(xNext_, d.a, x_);
        Matrix::gemv(tmpN_, d.b, uScaled_);
        addInto(xNext_, xNext_, tmpN_);
        std::swap(x_, xNext_);

        toPhysicalInto(d.outputScaling, yPhys_, yScaled_);
        if (yPhys_[kOutputIps] < model_->ipsFloor)
            yPhys_[kOutputIps] = model_->ipsFloor;
        if (yPhys_[kOutputPower] < model_->powerFloor)
            yPhys_[kOutputPower] = model_->powerFloor;
        return yPhys_;
    }

  private:
    const SurrogateModel *model_;
    Rng rng_;
    Matrix x_, xNext_, tmpN_, uScaled_, yScaled_, tmpO_, yPhys_;
};

// ---- Random models -------------------------------------------------

/** Normal entries, about a quarter of them exactly zero. */
Matrix
sparseNormal(Rng &rng, size_t rows, size_t cols, double sigma)
{
    Matrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniform() < 0.25 ? 0.0 : rng.normal(0.0, sigma);
    return m;
}

SignalScaling
randomScaling(Rng &rng, size_t channels)
{
    SignalScaling s;
    for (size_t i = 0; i < channels; ++i) {
        s.offset.push_back(rng.uniform(0.5, 4.0));
        s.scale.push_back(rng.uniform(0.05, 2.0));
    }
    return s;
}

/**
 * A stable model: A's rows are rescaled to an absolute row sum below
 * 0.95, which bounds its spectral radius by the same.
 */
StateSpaceModel
randomModel(Rng &rng, size_t n, size_t inputs, size_t outputs)
{
    StateSpaceModel m;
    m.a = sparseNormal(rng, n, n, 0.5);
    for (size_t r = 0; r < n; ++r) {
        double row = 0.0;
        for (size_t c = 0; c < n; ++c)
            row += std::abs(m.a(r, c));
        const double target = rng.uniform(0.1, 0.95);
        if (row > target)
            for (size_t c = 0; c < n; ++c)
                m.a(r, c) *= target / row;
    }
    m.b = sparseNormal(rng, n, inputs, 0.6);
    m.c = sparseNormal(rng, outputs, n, 0.8);
    for (size_t r = 0; r < outputs; ++r)
        m.c(r, r % n) = rng.uniform(0.5, 1.5); // Every output observes.
    m.d = sparseNormal(rng, outputs, inputs, 0.1);
    m.qn = Matrix::identity(n) * rng.uniform(1e-4, 1e-2);
    m.rn = Matrix::identity(outputs) * rng.uniform(1e-3, 1e-1);
    m.inputScaling = randomScaling(rng, inputs);
    m.outputScaling = randomScaling(rng, outputs);
    return m;
}

uint64_t
bitsOf(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** Every element of @p got equals @p want bit for bit. */
::testing::AssertionResult
bitEqual(const Matrix &got, const Matrix &want)
{
    if (got.rows() != want.rows() || got.cols() != want.cols()) {
        return ::testing::AssertionFailure()
            << "shape " << got.rows() << "x" << got.cols() << " vs "
            << want.rows() << "x" << want.cols();
    }
    for (size_t i = 0; i < got.rows(); ++i) {
        if (bitsOf(got[i]) != bitsOf(want[i])) {
            return ::testing::AssertionFailure()
                << "element " << i << ": " << got[i] << " vs " << want[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/** A physical vector of @p s's channels, @p spread scales about the
 *  offsets. */
Matrix
physicalAround(Rng &rng, const SignalScaling &s, double spread)
{
    Matrix v(s.channels(), 1);
    for (size_t i = 0; i < s.channels(); ++i)
        v[i] = s.offset[i] + s.scale[i] * rng.uniform(-spread, spread);
    return v;
}

TEST(ServoStepReference, MatchesTheGemvFormBitForBit)
{
    Rng rng(0x5E7F0);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    size_t models = 0, steps = 0, saturated_steps = 0;
    unsigned long rejected = 0, trips = 0;
    for (int trial = 0; trial < 240; ++trial) {
        const size_t n = 1 + rng.uniformInt(8);
        const size_t inputs = 1 + rng.uniformInt(3);
        const size_t outputs = 1 + rng.uniformInt(inputs);
        const StateSpaceModel model = randomModel(rng, n, inputs, outputs);
        LqgWeights weights;
        for (size_t i = 0; i < outputs; ++i)
            weights.outputWeights.push_back(rng.uniform(1.0, 100.0));
        for (size_t i = 0; i < inputs; ++i)
            weights.inputWeights.push_back(rng.uniform(10.0, 1000.0));
        InputLimits limits;
        for (size_t i = 0; i < inputs; ++i) {
            const double off = model.inputScaling.offset[i];
            const double sc = model.inputScaling.scale[i];
            limits.lo.push_back(off - sc * rng.uniform(1.0, 4.0));
            limits.hi.push_back(off + sc * rng.uniform(1.0, 4.0));
        }
        auto made = LqgServoController::tryMake(model, weights, limits);
        if (!made.ok())
            continue;
        LqgServoController fused = made.take();
        GemvServo gemv(fused, limits);
        ++models;

        const unsigned watchdog = trial % 3 == 0 ? 0u : 1u + trial % 5;
        fused.setSaturationWatchdog(watchdog);
        gemv.setSaturationWatchdog(watchdog);
        // The loop is closed on a mismatched copy of the model. Every
        // third model chases a reference far outside what its limits
        // reach, so its commands sit on a rail.
        const double spread = trial % 3 == 1 ? 40.0 : 0.5;
        StateSpaceModel plant = model;
        plant.a = model.a * rng.uniform(0.9, 1.05);
        Matrix u = physicalAround(rng, model.inputScaling, 0.5);
        for (int phase = 0; phase < 2; ++phase) {
            const Matrix ref = physicalAround(rng, model.outputScaling, spread);
            fused.setReference(ref);
            gemv.setReference(ref);
            fused.reset(u);
            gemv.reset(u);
            Matrix x(n, 1);
            for (int t = 0; t < 120; ++t) {
                const Matrix us = plant.inputScaling.toScaled(u);
                Matrix ys = plant.c * x + plant.d * us;
                for (size_t i = 0; i < outputs; ++i)
                    ys[i] += rng.normal(0.0, 0.05);
                x = plant.a * x + plant.b * us;
                Matrix meas = plant.outputScaling.toPhysical(ys);
                if (rng.uniform() < 0.04) {
                    const double bad[] = {nan, inf, -inf};
                    meas[rng.uniformInt(outputs)] = bad[rng.uniformInt(3)];
                }
                const Matrix &want = gemv.step(meas);
                const Matrix &got = fused.step(meas);
                ASSERT_TRUE(bitEqual(got, want))
                    << "trial " << trial << " phase " << phase
                    << " step " << t << " (n=" << n << ", " << inputs
                    << " in, " << outputs << " out)";
                ASSERT_EQ(bitsOf(fused.lastInnovationNorm()),
                          bitsOf(gemv.lastInnovationNorm()))
                    << "trial " << trial << " step " << t;
                ASSERT_EQ(fused.rejectedMeasurements(),
                          gemv.rejectedMeasurements());
                ASSERT_EQ(fused.watchdogTrips(), gemv.watchdogTrips());
                ++steps;
                for (size_t i = 0; i < inputs; ++i) {
                    if (got[i] == limits.lo[i] || got[i] == limits.hi[i]) {
                        ++saturated_steps;
                        break;
                    }
                }
                u = got;
            }
        }
        rejected += fused.rejectedMeasurements();
        trips += fused.watchdogTrips();
    }
    // The draw must have reached every branch it is meant to check.
    EXPECT_GE(models, 150u);
    EXPECT_GT(saturated_steps, steps / 10);
    EXPECT_LT(saturated_steps, steps / 2);
    EXPECT_GT(rejected, 100u);
    EXPECT_GT(trips, 20u);
    std::printf("servo oracle: %zu models, %zu steps, %zu saturated, "
                "%lu rejected, %lu watchdog trips\n",
                models, steps, saturated_steps, rejected, trips);
}

TEST(SurrogateStepReference, MatchesTheGemvFormBitForBit)
{
    // The step floors outputs kOutputIps and kOutputPower, so every
    // surrogate has at least two outputs.
    Rng rng(0x5A77);
    size_t floored = 0, steps = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const size_t n = 1 + rng.uniformInt(8);
        const size_t inputs = 2 + rng.uniformInt(2);
        const size_t outputs = 2 + rng.uniformInt(inputs - 1);
        SurrogateModel model;
        model.appName = "oracle";
        model.dynamics = randomModel(rng, n, inputs, outputs);
        for (size_t k = 0; k < outputs; ++k)
            model.noiseSigma.push_back(
                rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.0, 0.5));
        // Floors near the operating point, so some steps hit them.
        model.ipsFloor = model.dynamics.outputScaling.offset[kOutputIps] -
            model.dynamics.outputScaling.scale[kOutputIps] *
                rng.uniform(0.0, 1.0);
        model.powerFloor =
            model.dynamics.outputScaling.offset[kOutputPower] -
            model.dynamics.outputScaling.scale[kOutputPower] *
                rng.uniform(0.0, 1.0);
        const uint64_t seed = rng.next();
        SurrogateDynamics fused(model, seed);
        GemvSurrogate gemv(model, seed);
        for (int t = 0; t < 150; ++t) {
            const Matrix u =
                physicalAround(rng, model.dynamics.inputScaling, 3.0);
            const Matrix &want = gemv.step(u);
            const Matrix &got = fused.step(u);
            ASSERT_TRUE(bitEqual(got, want))
                << "trial " << trial << " step " << t << " (n=" << n
                << ", " << inputs << " in, " << outputs << " out)";
            ++steps;
            if (got[kOutputIps] == model.ipsFloor ||
                got[kOutputPower] == model.powerFloor)
                ++floored;
        }
    }
    EXPECT_GT(floored, steps / 20);
    EXPECT_LT(floored, steps);
}

TEST(ServoStepReference, ClosedLoopOnTheSurrogateMatches)
{
    // The analytic tier's loop: the servo commands the surrogate and
    // reads its noisy outputs back, both steps fused on one side and
    // gemv-based on the other.
    Rng rng(0xC1053D);
    size_t loops = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const size_t n = 1 + rng.uniformInt(8);
        const size_t inputs = 2 + rng.uniformInt(2);
        SurrogateModel plant;
        plant.appName = "oracle";
        plant.dynamics = randomModel(rng, n, inputs, 2);
        plant.noiseSigma = {rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)};
        LqgWeights weights;
        weights.outputWeights = {rng.uniform(1.0, 100.0),
                                 rng.uniform(1.0, 100.0)};
        for (size_t i = 0; i < inputs; ++i)
            weights.inputWeights.push_back(rng.uniform(1.0, 100.0));
        InputLimits limits;
        for (size_t i = 0; i < inputs; ++i) {
            const double off = plant.dynamics.inputScaling.offset[i];
            const double sc = plant.dynamics.inputScaling.scale[i];
            limits.lo.push_back(off - sc * rng.uniform(0.5, 2.0));
            limits.hi.push_back(off + sc * rng.uniform(0.5, 2.0));
        }
        auto made =
            LqgServoController::tryMake(plant.dynamics, weights, limits);
        if (!made.ok())
            continue;
        LqgServoController fused_ctrl = made.take();
        GemvServo gemv_ctrl(fused_ctrl, limits);
        const Matrix ref =
            physicalAround(rng, plant.dynamics.outputScaling, 2.0);
        Matrix u0(inputs, 1);
        for (size_t i = 0; i < inputs; ++i)
            u0[i] = plant.dynamics.inputScaling.offset[i];
        fused_ctrl.setReference(ref);
        gemv_ctrl.setReference(ref);
        fused_ctrl.reset(u0);
        gemv_ctrl.reset(u0);
        const uint64_t seed = rng.next();
        SurrogateDynamics fused_plant(plant, seed);
        GemvSurrogate gemv_plant(plant, seed);
        Matrix fused_u = u0, gemv_u = u0;
        for (int t = 0; t < 300; ++t) {
            const Matrix &fy = fused_plant.step(fused_u);
            const Matrix &gy = gemv_plant.step(gemv_u);
            ASSERT_TRUE(bitEqual(fy, gy)) << "trial " << trial << " step "
                                          << t;
            fused_u = fused_ctrl.step(fy);
            gemv_u = gemv_ctrl.step(gy);
            ASSERT_TRUE(bitEqual(fused_u, gemv_u))
                << "trial " << trial << " step " << t;
            ASSERT_EQ(bitsOf(fused_ctrl.lastInnovationNorm()),
                      bitsOf(gemv_ctrl.lastInnovationNorm()));
        }
        ASSERT_EQ(fused_ctrl.watchdogTrips(), gemv_ctrl.watchdogTrips());
        ++loops;
    }
    EXPECT_GE(loops, 40u);
}

} // namespace
} // namespace mimoarch
