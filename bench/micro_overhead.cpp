/**
 * @file
 * §VI-C overhead reproduction (google-benchmark): the runtime cost of
 * one controller invocation — a handful of small matrix-vector products
 * — and of the supporting machinery (quantization, Kalman update,
 * optimizer bookkeeping). The paper argues the controller is cheap
 * enough for hardware or a 50 us software epoch; these numbers show the
 * full software step costs well under a microsecond.
 */

#include <benchmark/benchmark.h>

#include "control/lqg.hpp"
#include "core/controllers.hpp"
#include "core/optimizer.hpp"
#include "linalg/riccati.hpp"
#include "telemetry/telemetry.hpp"

namespace mimoarch {
namespace {

StateSpaceModel
dim4Model()
{
    // A representative identified model: dimension 4, 2 inputs/outputs.
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

LqgServoController
makeController()
{
    LqgWeights w;
    w.outputWeights = {10.0, 10000.0};
    w.inputWeights = {1000.0, 50.0};
    InputLimits lim;
    lim.lo = {0.5, 1.0};
    lim.hi = {2.0, 4.0};
    return LqgServoController(dim4Model(), w, lim);
}

void
BM_LqgControllerStep(benchmark::State &state)
{
    LqgServoController ctrl = makeController();
    ctrl.setReference(Matrix::vector({2.0, 2.0}));
    Matrix y = Matrix::vector({1.8, 1.9});
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctrl.step(y));
    }
}
BENCHMARK(BM_LqgControllerStep);

void
BM_MimoControllerUpdate(benchmark::State &state)
{
    KnobSpace knobs(false);
    LqgWeights w;
    w.outputWeights = {10.0, 10000.0};
    w.inputWeights = {1000.0, 50.0};
    MimoArchController ctrl(dim4Model(), w, knobs);
    Observation obs;
    obs.y = Matrix::vector({1.8, 1.9});
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctrl.update(obs));
    }
}
BENCHMARK(BM_MimoControllerUpdate);

void
BM_OptimizerObserve(benchmark::State &state)
{
    KnobSpace knobs(false);
    LqgWeights w;
    w.outputWeights = {10.0, 10000.0};
    w.inputWeights = {1000.0, 50.0};
    MimoArchController ctrl(dim4Model(), w, knobs);
    Optimizer opt(ctrl, OptimizerConfig{});
    Matrix y = Matrix::vector({1.8, 1.9});
    opt.startSearch(y);
    for (auto _ : state) {
        opt.observe(y);
        if (!opt.searching())
            opt.startSearch(y);
    }
}
BENCHMARK(BM_OptimizerObserve);

// --- Kernel micro-benches: the allocating dim-4 product and the ----
// in-place gemv against its operator form.

void
BM_MatMulOperator(benchmark::State &state)
{
    const StateSpaceModel m = dim4Model();
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.a * m.a);
    }
}
BENCHMARK(BM_MatMulOperator);

void
BM_GemvOperator(benchmark::State &state)
{
    const StateSpaceModel m = dim4Model();
    const Matrix x = Matrix::vector({1.0, 2.0, 3.0, 4.0});
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.a * x);
    }
}
BENCHMARK(BM_GemvOperator);

void
BM_Gemv(benchmark::State &state)
{
    const StateSpaceModel m = dim4Model();
    const Matrix x = Matrix::vector({1.0, 2.0, 3.0, 4.0});
    Matrix out(4, 1);
    for (auto _ : state) {
        Matrix::gemv(out, m.a, x);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_Gemv);

void
BM_KalmanUpdate(benchmark::State &state)
{
    // The estimator half of step() in isolation: feed a controller a
    // constant measurement so each iteration exercises the innovation
    // computation and the time update with a warm workspace.
    LqgServoController ctrl = makeController();
    ctrl.setReference(Matrix::vector({2.0, 2.0}));
    const Matrix y = Matrix::vector({1.8, 1.9});
    for (int i = 0; i < 100; ++i)
        ctrl.step(y); // warm up: settle the estimator and workspaces
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctrl.step(y));
        benchmark::DoNotOptimize(ctrl.lastInnovationNorm());
    }
}
BENCHMARK(BM_KalmanUpdate);

void
BM_LqgDesign(benchmark::State &state)
{
    // Offline cost: the full DARE-based design (done once per model).
    for (auto _ : state) {
        LqgServoController ctrl = makeController();
        benchmark::DoNotOptimize(&ctrl);
    }
}
BENCHMARK(BM_LqgDesign);

void
BM_DareSolve4x4(benchmark::State &state)
{
    const StateSpaceModel m = dim4Model();
    const Matrix q = Matrix::identity(4);
    const Matrix r = Matrix::identity(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(solveDare(m.a, m.b, q, r));
    }
}
BENCHMARK(BM_DareSolve4x4);

// --- Telemetry primitives: the per-epoch instrumentation budget. ---
// These bound what the loop metrics in harness.cpp cost per epoch: an
// untimed Span while the trace buffer is disarmed, plus a timed Span
// and two histogram records while it is armed. The counts themselves
// are plain increments of the driver's own fields, and the registry
// sees one publish per run, not per epoch.

void
BM_TelemetryHistogramRecord(benchmark::State &state)
{
    telemetry::Histogram h;
    uint64_t v = 1;
    for (auto _ : state) {
        h.record(v);
        v = v * 2862933555777941757ULL + 3037000493ULL; // cheap LCG
        benchmark::DoNotOptimize(&h);
    }
}
BENCHMARK(BM_TelemetryHistogramRecord);

void
BM_TelemetryPublish(benchmark::State &state)
{
    // One owner's publish of a count and a histogram to names it
    // registered earlier: two mutex-guarded lookups, no allocation.
    telemetry::Registry reg;
    telemetry::Histogram h;
    for (uint64_t v = 0; v < 64; ++v)
        h.record(v << (v % 32));
    reg.add("bench.counter", 0);
    reg.merge("bench.histogram", {});
    for (auto _ : state) {
        reg.add("bench.counter", 1);
        reg.merge("bench.histogram", h);
        benchmark::DoNotOptimize(&reg);
    }
}
BENCHMARK(BM_TelemetryPublish);

void
BM_TelemetrySpanUntraced(benchmark::State &state)
{
    // Tracing off, no latency histogram: the Span must skip the clock.
    for (auto _ : state) {
        telemetry::Span span("bench-span", "bench");
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_TelemetrySpanUntraced);

void
BM_TelemetrySpanTimed(benchmark::State &state)
{
    // Tracing off but a latency sink attached: two clock reads + record.
    telemetry::Histogram h;
    for (auto _ : state) {
        telemetry::Span span("bench-span", "bench", &h);
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_TelemetrySpanTimed);

} // namespace
} // namespace mimoarch

BENCHMARK_MAIN();
