/**
 * @file
 * Tier-1 guard on the scalar controller hot path's step latency.
 *
 * micro_overhead's BM_LqgControllerStep and loopbench's per-layer
 * control.update_ns record the step's cost, but neither fails when it
 * drifts. This test gates, in a way that survives a noisy shared host
 * (absolute wall-clock bounds flake at ±20% scheduler noise):
 *
 *   - The primary gate is a *same-run ratio*: steady-state
 *     LqgServoController::step() ns against a reference kernel built
 *     from Matrix::gemv, measured back-to-back with
 *     min-of-3 reps. Machine speed, frequency scaling, and scheduler
 *     pressure hit both numerators, so the ratio is stable where the
 *     absolute numbers are not.
 *   - A generous absolute ceiling backs it up against the reference
 *     kernel itself regressing.
 *
 * Bounds are generous by design — this catches step-latency
 * regressions on the order of the bound's headroom (>~40%), i.e. an
 * accidental allocation, lock, or O(n) scan landing in the hot loop.
 * Finer-grained drift shows in those two measurements, compared
 * against the parent commit's runs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/random.hpp"
#include "control/lqg.hpp"
#include "control/statespace.hpp"

namespace mimoarch {
namespace {

/**
 * Steady-state LQG step may cost at most this many reference-kernel
 * units (measured 0.31-0.33x in RelWithDebInfo on a 4-vCPU VM, since
 * the step builds each element in one pass, compiled at this model's
 * fixed PaperShape; headroom covers compiler and libm variation
 * without hiding a hot-loop accident).
 */
constexpr double kMaxRatioVsReference = 3.0;
/** Catastrophic-regression backstop (steady state: 47-61 ns in
 *  RelWithDebInfo on a 4-vCPU VM). */
constexpr double kAbsCeilingNs = 2000.0;

constexpr size_t kStepsPerRep = 100000;
constexpr size_t kReps = 3;

StateSpaceModel
dim4Model()
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
    return m;
}

double
nowNs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::nano>(
               clock::now().time_since_epoch())
        .count();
}

TEST(StepLatencyGuard, ScalarStepStaysNearTheGemvReferenceKernel)
{
    const StateSpaceModel model = dim4Model();
    LqgWeights weights;
    weights.outputWeights = {10.0, 10000.0};
    weights.inputWeights = {1000.0, 50.0};
    InputLimits limits;
    limits.lo = {-50.0, -50.0};
    limits.hi = {50.0, 50.0};
    LqgServoController ctrl(model, weights, limits);
    ctrl.setReference(Matrix::vector({1.0, 2.0}));

    // A deterministic measurement stream with small perturbations, so
    // the controller stays in its steady-state regime (no watchdog
    // re-inits, no clamping churn) — the same regime the bench times.
    Rng rng(0x57E9);
    std::vector<Matrix> ys;
    for (size_t i = 0; i < 256; ++i)
        ys.push_back(Matrix::vector(
            {1.0 + 0.01 * rng.normal(), 2.0 + 0.01 * rng.normal()}));
    for (size_t i = 0; i < 2000; ++i) // Warm into steady state.
        (void)ctrl.step(ys[i & 255]);

    // Reference kernel: four dim-8 gemv's per "step", roughly the
    // algebra volume of one augmented-servo step, under the same
    // accumulation-order contract the step follows.
    Matrix a8 = Matrix::identity(8);
    for (size_t r = 0; r < 8; ++r)
        for (size_t c = 0; c < 8; ++c)
            a8(r, c) += 0.01 * static_cast<double>(r + 2 * c);
    Matrix x8 = Matrix::vector({1, 2, 3, 4, 5, 6, 7, 8});
    Matrix out8;
    double sink = 0.0;

    double lqg_ns = 1e18, ref_ns = 1e18;
    for (size_t rep = 0; rep < kReps; ++rep) {
        double t0 = nowNs();
        for (size_t i = 0; i < kStepsPerRep; ++i)
            sink += ctrl.step(ys[i & 255])[0];
        lqg_ns = std::min(
            lqg_ns, (nowNs() - t0) / static_cast<double>(kStepsPerRep));

        t0 = nowNs();
        for (size_t i = 0; i < kStepsPerRep; ++i) {
            for (int k = 0; k < 4; ++k) {
                Matrix::gemv(out8, a8, x8);
                x8[0] = out8[0] * 1e-6 + 1.0; // Serialize iterations.
            }
            sink += out8[0];
        }
        ref_ns = std::min(
            ref_ns, (nowNs() - t0) / static_cast<double>(kStepsPerRep));
    }
    ASSERT_TRUE(std::isfinite(sink));
    ASSERT_GT(ref_ns, 0.0);

    const double ratio = lqg_ns / ref_ns;
    std::printf("step latency guard: lqg %.1f ns/step, reference %.1f "
                "ns/step, ratio %.2f (bound %.1f)\n",
                lqg_ns, ref_ns, ratio, kMaxRatioVsReference);
    EXPECT_LE(ratio, kMaxRatioVsReference)
        << "controller step cost regressed relative to the same-run "
           "gemv reference kernel — something heavy landed on the "
           "scalar hot path";
    EXPECT_LE(lqg_ns, kAbsCeilingNs)
        << "controller step latency blew through the catastrophic "
           "ceiling";
}

} // namespace
} // namespace mimoarch
