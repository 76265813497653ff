/**
 * @file
 * Allocation-count regression tests for the hot path. A counting
 * global operator new (this binary only) proves the PR-4 contract:
 * once the controller workspaces are warm, LqgServoController::step()
 * performs ZERO heap allocations, and a harness epoch performs zero
 * steady-state allocations (fixed per-run setup costs are allowed and
 * cancelled out by comparing runs of different lengths).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "control/lqg.hpp"
#include "core/controllers.hpp"
#include "core/harness.hpp"
#include "core/plant.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/spec_suite.hpp"

namespace {

std::atomic<uint64_t> g_newCalls{0};

void *
countedAlloc(std::size_t n)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

} // namespace

// Counting overrides for every replaceable allocation form. Deletes
// pair with malloc so sized/unsized both work.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace mimoarch {
namespace {

uint64_t
allocCount()
{
    return g_newCalls.load(std::memory_order_relaxed);
}

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

LqgWeights
paperWeights()
{
    LqgWeights w;
    w.outputWeights = {10.0, 10000.0};
    w.inputWeights = {1000.0, 50.0};
    return w;
}

TEST(AllocationFree, LqgStepMakesZeroAllocationsAfterWarmup)
{
    InputLimits lim;
    lim.lo = {0.5, 1.0};
    lim.hi = {2.0, 4.0};
    LqgServoController ctrl(dim4Model(), paperWeights(), lim);
    ctrl.setReference(Matrix::vector({2.0, 2.0}));
    const Matrix y = Matrix::vector({1.8, 1.9});

    // Warm up: first steps may lazily size anything left.
    for (int i = 0; i < 16; ++i)
        ctrl.step(y);

    const uint64_t before = allocCount();
    double sink = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const Matrix &u = ctrl.step(y);
        sink += u[0];
    }
    const uint64_t after = allocCount();
    EXPECT_EQ(after - before, 0u)
        << "LqgServoController::step() allocated on the steady-state "
           "path (checksum " << sink << ")";
}

TEST(AllocationFree, MimoControllerUpdateMakesZeroAllocations)
{
    const KnobSpace knobs(false);
    MimoArchController ctrl(dim4Model(), paperWeights(), knobs);
    Observation obs;
    obs.y = Matrix::vector({1.8, 1.9});
    KnobSettings init;
    ctrl.initialize(init);
    for (int i = 0; i < 16; ++i)
        ctrl.update(obs);

    const uint64_t before = allocCount();
    for (int i = 0; i < 10000; ++i)
        ctrl.update(obs);
    EXPECT_EQ(allocCount() - before, 0u)
        << "MimoArchController::update() allocated per step";
}

/** Allocations made inside one driver.run() of @p epochs epochs
 *  (construction/setup costs are deliberately outside the window). */
uint64_t
harnessRunAllocCount(size_t epochs)
{
    const KnobSpace knobs(false);
    MimoArchController ctrl(dim4Model(), paperWeights(), knobs);
    ctrl.setReference(1.8, 1.9);
    SimPlant plant(Spec2006Suite::byName("mcf"), knobs);
    DriverConfig dcfg;
    dcfg.epochs = epochs;
    dcfg.warmupEpochs = 50;
    dcfg.errorSkipEpochs = 100;
    EpochDriver driver(plant, ctrl, dcfg);
    KnobSettings init;
    init.freqLevel = 3;
    init.cacheSetting = 1;
    const uint64_t before = allocCount();
    driver.run(init);
    return allocCount() - before;
}

/**
 * Steady-state proof for the whole harness loop: run the same
 * experiment at 600 and at 1200 epochs from identical fresh state.
 * Per-run setup (design, controller workspaces, trace reserve,
 * optimizer) costs the same number of allocations in both, so equal
 * totals imply exactly zero allocations per additional epoch.
 */
TEST(AllocationFree, HarnessEpochIsAllocationFreeInSteadyState)
{
    const uint64_t short_run = harnessRunAllocCount(600);
    const uint64_t long_run = harnessRunAllocCount(1200);
    EXPECT_EQ(long_run, short_run)
        << "the extra 600 epochs allocated "
        << (long_run - short_run) << " times — the epoch loop is not "
           "allocation-free in steady state";
}

/**
 * The same proof with the telemetry layer live: metrics recording and
 * an armed trace buffer must add ZERO steady-state allocations. The
 * buffer is sized up front (that allocation happens here, outside the
 * measured window); every epoch then claims preallocated slots only.
 */
TEST(AllocationFree, TelemetryInstrumentedEpochLoopStaysAllocationFree)
{
    // Room for both runs' spans (run + warmup + one per epoch).
    telemetry::trace().start(size_t{1} << 13);
    const uint64_t short_run = harnessRunAllocCount(600);
    const uint64_t long_run = harnessRunAllocCount(1200);
    telemetry::trace().stop();
    EXPECT_EQ(telemetry::trace().dropped(), 0u);
    telemetry::trace().clear();
    EXPECT_EQ(long_run, short_run)
        << "with telemetry armed, the extra 600 epochs allocated "
        << (long_run - short_run)
        << " times — recording is not allocation-free";
}

/**
 * Telemetry being armed or disarmed must not change what the epoch
 * loop allocates: the Span/record calls never touch the heap either
 * way, so the totals are identical, not merely length-independent.
 */
TEST(AllocationFree, ArmingTelemetryDoesNotChangeAllocationCount)
{
    const uint64_t disarmed = harnessRunAllocCount(600);
    telemetry::trace().start(size_t{1} << 12);
    const uint64_t armed = harnessRunAllocCount(600);
    telemetry::trace().stop();
    telemetry::trace().clear();
    EXPECT_EQ(armed, disarmed);
}

} // namespace
} // namespace mimoarch
