/**
 * @file
 * Hot-path throughput macro-bench: the perf-trajectory anchor for the
 * steady-state epoch loop. Runs a fig09-style sweep (MIMO + optimizer,
 * one job per app) plus a tight controller-step microloop and the cold
 * design flow, and writes BENCH_hotpath.json with:
 *
 *   - design_flow_ms          cold DesignCache system-identification run
 *   - controller_ns_per_step  LqgServoController::step() on a dim-4 model
 *   - controller_steady_ns_per_step  same, unsaturated steady regime
 *   - sweep_wall_ms           wall-clock of the sweep
 *   - epochs_per_sec          controlled epochs per second across workers
 *   - peak_rss_mb             getrusage peak resident set
 *
 * Checksums (bit-exact sums of controller commands and sweep metrics)
 * ride along so a perf change that moves numerics is caught here too.
 *
 * Pass --baseline <previous BENCH_hotpath.json> to embed that file's
 * numbers as the "baseline" block and print speedup ratios — this is
 * how the perf trajectory stays comparable across PRs.
 *
 *   ./bench/hotpath_throughput --jobs 4 --baseline BENCH_hotpath.json
 */

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/design_cache.hpp"
#include "exec/plant_factory.hpp"
#include "telemetry/telemetry.hpp"

using namespace mimoarch;
using namespace mimoarch::bench;

namespace {

double
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** The micro_overhead dim-4 model, kept here so the macro bench is
 *  self-contained and its ns/step series is comparable over time. */
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

/** First numeric value following "<key>": in @p text, or NaN. */
double
findNumber(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return std::nan("");
    return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

struct Metrics
{
    double designFlowMs = 0.0;
    double controllerNsPerStep = 0.0;
    double controllerChecksum = 0.0;
    double controllerSteadyNsPerStep = 0.0; //!< Unsaturated regime.
    double controllerSteadyChecksum = 0.0;
    double sweepWallMs = 0.0;
    double epochsPerSec = 0.0;
    double sweepChecksum = 0.0;
    double analyticCalibrationMs = 0.0; //!< One-time surrogate fits.
    double analyticSweepWallMs = 0.0;
    double analyticEpochsPerSec = 0.0;
    double analyticSpeedupVsCycle = 0.0; //!< epochs/s ratio, same run.
    double analyticSweepChecksum = 0.0;
    double peakRssMbVal = 0.0;
};

void
writeJson(std::FILE *f, const char *indent, const Metrics &m)
{
    std::fprintf(f, "%s\"design_flow_ms\": %.3f,\n", indent,
                 m.designFlowMs);
    std::fprintf(f, "%s\"controller_ns_per_step\": %.2f,\n", indent,
                 m.controllerNsPerStep);
    std::fprintf(f, "%s\"controller_checksum\": %.17g,\n", indent,
                 m.controllerChecksum);
    std::fprintf(f, "%s\"controller_steady_ns_per_step\": %.2f,\n",
                 indent, m.controllerSteadyNsPerStep);
    std::fprintf(f, "%s\"controller_steady_checksum\": %.17g,\n", indent,
                 m.controllerSteadyChecksum);
    std::fprintf(f, "%s\"sweep_wall_ms\": %.3f,\n", indent, m.sweepWallMs);
    std::fprintf(f, "%s\"epochs_per_sec\": %.1f,\n", indent,
                 m.epochsPerSec);
    std::fprintf(f, "%s\"sweep_checksum\": %.17g,\n", indent,
                 m.sweepChecksum);
    std::fprintf(f, "%s\"analytic_calibration_ms\": %.3f,\n", indent,
                 m.analyticCalibrationMs);
    std::fprintf(f, "%s\"analytic_sweep_wall_ms\": %.3f,\n", indent,
                 m.analyticSweepWallMs);
    std::fprintf(f, "%s\"analytic_epochs_per_sec\": %.1f,\n", indent,
                 m.analyticEpochsPerSec);
    std::fprintf(f, "%s\"analytic_speedup_vs_cycle\": %.1f,\n", indent,
                 m.analyticSpeedupVsCycle);
    std::fprintf(f, "%s\"analytic_sweep_checksum\": %.17g,\n", indent,
                 m.analyticSweepChecksum);
    std::fprintf(f, "%s\"peak_rss_mb\": %.2f\n", indent, m.peakRssMbVal);
}

} // namespace

int
main(int argc, char **argv)
{
    size_t n_apps = 6;
    size_t epochs = 2000;
    size_t micro_steps = 500000;
    std::string baseline_path;
    exec::SweepOptions sweep_opt;
    sweep_opt.progress = true;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value after ", arg);
            return argv[++i];
        };
        if (arg == "--jobs" || arg == "-j")
            sweep_opt.jobs = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--apps")
            n_apps = static_cast<size_t>(std::atol(next()));
        else if (arg == "--epochs")
            epochs = static_cast<size_t>(std::atol(next()));
        else if (arg == "--baseline")
            baseline_path = next();
        else if (arg == "--telemetry")
            sweep_opt.telemetry = next();
        else
            fatal("unknown argument: ", arg,
                  " (--jobs N --apps N --epochs N --baseline FILE "
                  "--telemetry OUT.json)");
    }

    banner("Hot-path throughput (fig09-style sweep + controller microloop)");
    Metrics cur;

    // Constructed before the phases so --telemetry traces all of them
    // (the runner arms the trace buffer and writes the reports). The
    // buffer is sized from the configured sweep length rather than the
    // legacy fixed capacity, so telemetry RSS scales with the run.
    sweep_opt.traceEpochs = n_apps * epochs;
    exec::SweepRunner runner(sweep_opt);

    // 1. Cold design flow (system identification + LQG design + RSA).
    const double t_design = nowMs();
    const auto design = [] {
        telemetry::Span span("design-flow", "bench");
        return cachedDesign(false);
    }();
    cur.designFlowMs = nowMs() - t_design;
    std::printf("design flow:   %10.1f ms (cold DesignCache fill)\n",
                cur.designFlowMs);

    // 2. Controller-step microloop on the standard dim-4 model, at two
    // operating points:
    //
    //   - "saturated": the historical workload (reference off the
    //     measurement, tight limits) clips an input every step, so it
    //     exercises the anti-windup branch. Kept verbatim so the
    //     controller_ns_per_step series stays comparable across PRs.
    //   - "steady": reference equal to the measurement with wide
    //     limits — zero tracking error, stable integrator, commands at
    //     an interior fixed point at any run length. This is the
    //     regime a converged loop spends its life in.
    LqgWeights w;
    w.outputWeights = {10.0, 10000.0};
    w.inputWeights = {1000.0, 50.0};
    InputLimits satLim;
    satLim.lo = {0.5, 1.0};
    satLim.hi = {2.0, 4.0};
    InputLimits wideLim;
    wideLim.lo = {-50.0, -50.0};
    wideLim.hi = {50.0, 50.0};
    const Matrix satRef = Matrix::vector({2.0, 2.0});
    const Matrix y = Matrix::vector({1.8, 1.9});
    const Matrix steadyRef = y; // Zero error: never saturates.
    const StateSpaceModel model = dim4Model();
    {
        telemetry::Span span("controller-microloop", "bench");
        LqgServoController ctrl(model, w, satLim);
        ctrl.setReference(satRef);
        // Warm up (first steps pay one-time lazy work).
        for (size_t i = 0; i < 1000; ++i)
            ctrl.step(y);
        // Min-of-3: the single-shot version of this loop drifted
        // 126 -> 134 ns/step across PRs 6-8 purely from scheduler
        // noise on the shared box. The checksum stays the historical
        // first-pass sum (the controller keeps evolving across reps),
        // so the bit-exact series is unbroken.
        double sum = 0.0;
        double sat_best_ms = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            double rsum = 0.0;
            const double t0 = nowMs();
            for (size_t i = 0; i < micro_steps; ++i) {
                const Matrix &u = ctrl.step(y);
                rsum += u[0];
            }
            const double el = nowMs() - t0;
            if (rep == 0) {
                sum = rsum;
                sat_best_ms = el;
            } else if (el < sat_best_ms) {
                sat_best_ms = el;
            }
        }
        cur.controllerNsPerStep =
            sat_best_ms * 1e6 / static_cast<double>(micro_steps);
        cur.controllerChecksum = sum;
        std::printf("controller:    %10.1f ns/step saturated (%zu steps, "
                    "checksum %.17g)\n",
                    cur.controllerNsPerStep, micro_steps, sum);

        // Min-of-3 repetitions, as above, to keep scheduler jitter
        // out of the number.
        LqgServoController steady(model, w, wideLim);
        steady.setReference(steadyRef);
        for (size_t i = 0; i < 1000; ++i)
            steady.step(y);
        double ssum = 0.0;
        double best_ms = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            double rsum = 0.0;
            const double t2 = nowMs();
            for (size_t i = 0; i < micro_steps; ++i) {
                const Matrix &u = steady.step(y);
                rsum += u[0];
            }
            const double el = nowMs() - t2;
            if (rep == 0) {
                ssum = rsum; // At the fixed point every rep repeats.
                best_ms = el;
            } else if (el < best_ms) {
                best_ms = el;
            }
        }
        cur.controllerSteadyNsPerStep =
            best_ms * 1e6 / static_cast<double>(micro_steps);
        cur.controllerSteadyChecksum = ssum;
        std::printf("controller:    %10.1f ns/step steady (%zu steps, "
                    "checksum %.17g)\n",
                    cur.controllerSteadyNsPerStep, micro_steps, ssum);
    }

    // 3. The fig09-style sweep: MIMO + optimizer, one job per app.
    const ExperimentConfig cfg = benchConfig();
    const auto apps = figureAppOrder();
    if (n_apps > apps.size())
        n_apps = apps.size();
    std::vector<exec::JobKey> keys;
    for (size_t i = 0; i < n_apps; ++i)
        keys.push_back({apps[i], "hotpath", 0, 0});
    const double t_sweep = nowMs();
    const std::vector<double> exd =
        runner
            .mapJobs<double>(keys, benchFingerprint(),
                             [&](const exec::JobContext &ctx) {
            const AppSpec &app = Spec2006Suite::byName(ctx.key.app);
            const KnobSpace knobs(false);
            const MimoControllerDesign flow(knobs, cfg);
            auto mimo = flow.buildController(*design);
            SimPlant plant(app, knobs);
            DriverConfig dcfg;
            dcfg.epochs = epochs;
            dcfg.useOptimizer = true;
            dcfg.optimizer.metricExponent = 2;
            dcfg.cancel = &ctx.cancel;
            EpochDriver driver(plant, *mimo, dcfg);
            return driver.run(baselineSettings()).exdMetric(2);
        })
            .results;
    cur.sweepWallMs = nowMs() - t_sweep;
    const double total_epochs =
        static_cast<double>(n_apps) * static_cast<double>(epochs);
    cur.epochsPerSec = total_epochs / (cur.sweepWallMs / 1000.0);
    for (double v : exd)
        cur.sweepChecksum += v;
    cur.peakRssMbVal = peakRssMb();
    std::printf("sweep:         %10.1f ms wall (%zu apps x %zu epochs, "
                "%u jobs) = %.0f epochs/s\n",
                cur.sweepWallMs, n_apps, epochs, runner.jobs(),
                cur.epochsPerSec);
    std::printf("peak RSS:      %10.2f MB\n", cur.peakRssMbVal);
    std::printf("sweep checksum: %.17g\n", cur.sweepChecksum);

    // 3b. The same sweep shape at the analytic tier (DESIGN.md §13):
    // surrogate plants stepped for 25x the epochs per app, because at
    // surrogate cost the cycle-level epoch count finishes too fast to
    // time. Calibration (one cycle-level sysid run per app, cached
    // process-wide) is timed separately — it is a one-time cost a real
    // analytic campaign amortizes over its whole sweep.
    {
        ExperimentConfig acfg = cfg;
        acfg.fidelity = PlantFidelity::Analytic;
        const KnobSpace knobs(false);
        const double t_cal = nowMs();
        for (size_t i = 0; i < n_apps; ++i) {
            (void)exec::DesignCache::instance().surrogate(
                Spec2006Suite::byName(apps[i]), knobs, acfg);
        }
        cur.analyticCalibrationMs = nowMs() - t_cal;

        const size_t an_epochs = epochs * 25;
        Fnv64 fp;
        fp.str("hotpath-analytic").u64(benchFingerprint());
        std::vector<exec::JobKey> an_keys;
        for (size_t i = 0; i < n_apps; ++i)
            an_keys.push_back({apps[i], "hotpath-analytic", 0, 0});
        const double t_an = nowMs();
        const std::vector<double> an_exd =
            runner
                .mapJobs<double>(an_keys, fp.value(),
                                 [&](const exec::JobContext &ctx) {
                const AppSpec &app = Spec2006Suite::byName(ctx.key.app);
                const KnobSpace job_knobs(false);
                const MimoControllerDesign flow(job_knobs, acfg);
                auto mimo = flow.buildController(*design);
                auto plant = exec::makePlant(app, job_knobs, acfg);
                DriverConfig dcfg;
                dcfg.epochs = an_epochs;
                dcfg.useOptimizer = true;
                dcfg.optimizer.metricExponent = 2;
                dcfg.fidelity = PlantFidelity::Analytic;
                dcfg.cancel = &ctx.cancel;
                EpochDriver driver(*plant, *mimo, dcfg);
                return driver.run(baselineSettings()).exdMetric(2);
            })
                .results;
        cur.analyticSweepWallMs = nowMs() - t_an;
        const double an_total = static_cast<double>(n_apps) *
            static_cast<double>(an_epochs);
        cur.analyticEpochsPerSec =
            an_total / (cur.analyticSweepWallMs / 1000.0);
        cur.analyticSpeedupVsCycle =
            cur.epochsPerSec > 0.0
                ? cur.analyticEpochsPerSec / cur.epochsPerSec
                : 0.0;
        for (double v : an_exd)
            cur.analyticSweepChecksum += v;
        std::printf("analytic:      %10.1f ms wall (%zu apps x %zu "
                    "epochs, calib %.0f ms) = %.0f epochs/s, %.0fx "
                    "cycle-level\n",
                    cur.analyticSweepWallMs, n_apps, an_epochs,
                    cur.analyticCalibrationMs, cur.analyticEpochsPerSec,
                    cur.analyticSpeedupVsCycle);
        std::printf("analytic checksum: %.17g\n",
                    cur.analyticSweepChecksum);
    }

    // Optional baseline for the trajectory.
    Metrics base;
    bool have_baseline = false;
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (in.good()) {
            std::ostringstream ss;
            ss << in.rdbuf();
            const std::string text = ss.str();
            base.designFlowMs = findNumber(text, "design_flow_ms");
            base.controllerNsPerStep =
                findNumber(text, "controller_ns_per_step");
            base.controllerChecksum =
                findNumber(text, "controller_checksum");
            base.controllerSteadyNsPerStep =
                findNumber(text, "controller_steady_ns_per_step");
            base.controllerSteadyChecksum =
                findNumber(text, "controller_steady_checksum");
            base.sweepWallMs = findNumber(text, "sweep_wall_ms");
            base.epochsPerSec = findNumber(text, "epochs_per_sec");
            base.sweepChecksum = findNumber(text, "sweep_checksum");
            base.analyticCalibrationMs =
                findNumber(text, "analytic_calibration_ms");
            base.analyticSweepWallMs =
                findNumber(text, "analytic_sweep_wall_ms");
            base.analyticEpochsPerSec =
                findNumber(text, "analytic_epochs_per_sec");
            base.analyticSpeedupVsCycle =
                findNumber(text, "analytic_speedup_vs_cycle");
            base.analyticSweepChecksum =
                findNumber(text, "analytic_sweep_checksum");
            base.peakRssMbVal = findNumber(text, "peak_rss_mb");
            // Baselines written before the steady or analytic blocks
            // lack those fields; zero keeps the JSON valid.
            for (double *v :
                 {&base.controllerSteadyNsPerStep,
                  &base.controllerSteadyChecksum,
                  &base.analyticCalibrationMs, &base.analyticSweepWallMs,
                  &base.analyticEpochsPerSec,
                  &base.analyticSpeedupVsCycle,
                  &base.analyticSweepChecksum})
                if (!std::isfinite(*v))
                    *v = 0.0;
            have_baseline = std::isfinite(base.controllerNsPerStep);
        }
        if (!have_baseline)
            std::fprintf(stderr, "warning: could not read baseline %s\n",
                         baseline_path.c_str());
    }
    if (have_baseline) {
        std::printf("vs baseline:   controller %.2fx, sweep %.2fx, "
                    "design flow %.2fx\n",
                    base.controllerNsPerStep / cur.controllerNsPerStep,
                    base.sweepWallMs / cur.sweepWallMs,
                    base.designFlowMs / cur.designFlowMs);
    }

    std::FILE *f = std::fopen("BENCH_hotpath.json", "w");
    if (!f)
        fatal("cannot write BENCH_hotpath.json");
    std::fprintf(f, "{\n  \"schema\": 1,\n");
#ifdef NDEBUG
    std::fprintf(f, "  \"build\": \"release\",\n");
#else
    std::fprintf(f, "  \"build\": \"debug\",\n");
#endif
#if defined(MIMOARCH_CHECKED) && MIMOARCH_CHECKED
    std::fprintf(f, "  \"checked_access\": true,\n");
#else
    std::fprintf(f, "  \"checked_access\": false,\n");
#endif
    std::fprintf(f, "  \"jobs\": %u,\n", runner.jobs());
    std::fprintf(f, "  \"apps\": %zu,\n  \"epochs_per_app\": %zu,\n",
                 n_apps, epochs);
    std::fprintf(f, "  \"current\": {\n");
    writeJson(f, "    ", cur);
    if (have_baseline) {
        std::fprintf(f, "  },\n  \"baseline\": {\n");
        writeJson(f, "    ", base);
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_hotpath.json\n");
    return 0;
}
