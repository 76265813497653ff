/**
 * @file
 * Fidelity calibration report (DESIGN.md §13): quantifies what the
 * analytic surrogate tier gives up relative to the cycle-level tier it
 * was calibrated on, and how much throughput it buys back.
 *
 * For each training app it reports:
 *
 *   - the surrogate's open-loop error envelope (the sysid validation
 *     report on the calibration record),
 *   - closed-loop deltas between the tiers under the same MIMO
 *     controller: mean IPS, mean power, and the E x D metric,
 *   - both tiers' epochs/s on the same controlled run shape.
 *
 * Exit status is the verdict (satellite of the fidelity-tier work): 0
 * when every app is inside the documented tolerances below, 1
 * otherwise — so CI or a sweep script can gate an analytic campaign on
 * the surrogate still being trustworthy. Writes BENCH_fidelity.json
 * (schema 2), which holds only deterministic fields, so any --jobs
 * writes the same bytes; the two tiers' throughputs are wall-clock
 * figures and go to stdout only.
 *
 *   ./bench/fig_fidelity --jobs 2
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/plant_factory.hpp"

using namespace mimoarch;
using namespace mimoarch::bench;

namespace {

// Documented tolerances (DESIGN.md §13). Generous on purpose: the
// surrogate is a linear response surface with refit noise, so it is
// expected to be a faithful *ranking* model, not a bit-accurate twin.
constexpr double kOpenLoopMeanTol = 0.35; //!< Worst per-output mean.
constexpr double kClosedLoopTol = 0.30;   //!< Mean IPS/power delta.
/** A cycle-level E x D gap below this is a near-tie: the tiers may
 *  legitimately order such a pair differently. */
constexpr double kRankTieBand = 0.15;

double
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

struct AppRow
{
    std::string app;
    double openLoopWorstMean = 0.0;
    double cycleMeanIps = 0.0, analyticMeanIps = 0.0;
    double cycleMeanPower = 0.0, analyticMeanPower = 0.0;
    double cycleExd = 0.0, analyticExd = 0.0;
    double cycleWallMs = 0.0, analyticWallMs = 0.0;
    double ipsDelta = 0.0, powerDelta = 0.0;
};

double
relDelta(double a, double b)
{
    return b != 0.0 ? std::abs(a - b) / std::abs(b) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    exec::SweepOptions sweep_opt = benchSweepOptions(argc, argv);
    banner("Fidelity tiers: surrogate calibration report");

    const ExperimentConfig cfg = benchConfig();
    ExperimentConfig acfg = cfg;
    acfg.fidelity = PlantFidelity::Analytic;
    const KnobSpace knobs(false);
    const auto design = cachedDesign(false);
    const auto apps = Spec2006Suite::trainingSet();
    const size_t epochs = 2000;

    // Calibrate every surrogate up front (cached process-wide) so the
    // per-job wall clocks below time *stepping*, not calibration.
    for (const AppSpec &app : apps)
        (void)exec::DesignCache::instance().surrogate(app, knobs, acfg);

    exec::SweepRunner runner(sweep_opt);

    // One job per (app, tier): tier 0 = cycle, 1 = analytic. The job
    // returns the summary scalars; rows are assembled afterwards.
    struct JobOut
    {
        double meanIps = 0.0, meanPower = 0.0, exd = 0.0, wallMs = 0.0;
    };
    std::vector<exec::JobKey> keys;
    for (const AppSpec &app : apps) {
        keys.push_back({app.name, "fidelity-cycle", 0, 0});
        keys.push_back({app.name, "fidelity-analytic", 1, 0});
    }
    Fnv64 fp;
    fp.str("fig-fidelity").u64(acfg.fingerprint());
    const auto outs =
        runner
            .mapJobs<JobOut>(keys, fp.value(),
                             [&](const exec::JobContext &ctx) {
        const AppSpec &app = Spec2006Suite::byName(ctx.key.app);
        const bool analytic = ctx.key.config == 1;
        const ExperimentConfig &job_cfg = analytic ? acfg : cfg;
        const KnobSpace job_knobs(false);
        const MimoControllerDesign flow(job_knobs, job_cfg);
        auto mimo = flow.buildController(*design);
        auto plant = exec::makePlant(app, job_knobs, job_cfg);
        DriverConfig dcfg;
        dcfg.epochs = epochs;
        dcfg.fidelity = job_cfg.fidelity;
        dcfg.cancel = &ctx.cancel;
        EpochDriver driver(*plant, *mimo, dcfg);
        const double t0 = nowMs();
        const RunSummary s = driver.run(offTargetStart());
        JobOut out;
        out.wallMs = nowMs() - t0;
        out.meanIps =
            s.totalTimeS > 0.0 ? s.totalInstrB / s.totalTimeS : 0.0;
        out.meanPower =
            s.totalTimeS > 0.0 ? s.totalEnergyJ / s.totalTimeS : 0.0;
        out.exd = s.exdMetric(2);
        return out;
    })
            .results;

    std::vector<AppRow> rows;
    bool pass = true;
    double cycle_wall_total = 0.0, analytic_wall_total = 0.0;
    std::printf("%-12s %10s %9s %9s %9s %9s %11s\n", "app",
                "openloop", "dIPS", "dPower", "cyc-ExD", "ana-ExD",
                "speedup");
    for (size_t i = 0; i < apps.size(); ++i) {
        const JobOut &cyc = outs[2 * i];
        const JobOut &ana = outs[2 * i + 1];
        AppRow r;
        r.app = apps[i].name;
        r.openLoopWorstMean = exec::DesignCache::instance()
                                  .surrogate(apps[i], knobs, acfg)
                                  ->fit.worstMean();
        r.cycleMeanIps = cyc.meanIps;
        r.analyticMeanIps = ana.meanIps;
        r.cycleMeanPower = cyc.meanPower;
        r.analyticMeanPower = ana.meanPower;
        r.cycleExd = cyc.exd;
        r.analyticExd = ana.exd;
        r.cycleWallMs = cyc.wallMs;
        r.analyticWallMs = ana.wallMs;
        r.ipsDelta = relDelta(ana.meanIps, cyc.meanIps);
        r.powerDelta = relDelta(ana.meanPower, cyc.meanPower);
        cycle_wall_total += cyc.wallMs;
        analytic_wall_total += ana.wallMs;
        const bool row_ok = r.openLoopWorstMean <= kOpenLoopMeanTol &&
            r.ipsDelta <= kClosedLoopTol &&
            r.powerDelta <= kClosedLoopTol;
        if (!row_ok)
            pass = false;
        std::printf("%-12s %9.1f%% %8.1f%% %8.1f%% %9.3g %9.3g %10.1fx%s\n",
                    r.app.c_str(), r.openLoopWorstMean * 100.0,
                    r.ipsDelta * 100.0, r.powerDelta * 100.0, r.cycleExd,
                    r.analyticExd,
                    r.analyticWallMs > 0.0
                        ? r.cycleWallMs / r.analyticWallMs
                        : 0.0,
                    row_ok ? "" : "  <-- OUT OF TOLERANCE");
        rows.push_back(r);
    }

    // Ranking concordance: every pair of apps the two tiers order
    // differently by E x D must be a near-tie at cycle level —
    // otherwise the surrogate would steer an optimizer-style
    // comparison to the wrong design point.
    size_t discordant = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        for (size_t j = i + 1; j < rows.size(); ++j) {
            const double c = rows[i].cycleExd - rows[j].cycleExd;
            const double a = rows[i].analyticExd - rows[j].analyticExd;
            if (c * a >= 0.0)
                continue; // Concordant (or a tie).
            const double sep = relDelta(rows[i].cycleExd,
                                        rows[j].cycleExd);
            if (sep > kRankTieBand) {
                ++discordant;
                std::printf("rank swap outside tie band: %s vs %s "
                            "(cycle-level E x D gap %.1f%%)\n",
                            rows[i].app.c_str(), rows[j].app.c_str(),
                            sep * 100.0);
            }
        }
    }
    if (discordant > 0)
        pass = false;

    const double cycle_eps = cycle_wall_total > 0.0
        ? static_cast<double>(apps.size() * epochs) /
            (cycle_wall_total / 1000.0)
        : 0.0;
    const double analytic_eps = analytic_wall_total > 0.0
        ? static_cast<double>(apps.size() * epochs) /
            (analytic_wall_total / 1000.0)
        : 0.0;
    std::printf("throughput:    cycle %.0f epochs/s, analytic %.0f "
                "epochs/s (%.0fx)\n",
                cycle_eps, analytic_eps,
                cycle_eps > 0.0 ? analytic_eps / cycle_eps : 0.0);

    std::FILE *f = std::fopen("BENCH_fidelity.json", "w");
    if (!f)
        fatal("cannot write BENCH_fidelity.json");
    std::fprintf(f, "{\n  \"schema\": 2,\n");
    std::fprintf(f, "  \"open_loop_mean_tol\": %.2f,\n", kOpenLoopMeanTol);
    std::fprintf(f, "  \"closed_loop_tol\": %.2f,\n", kClosedLoopTol);
    std::fprintf(f, "  \"rank_tie_band\": %.2f,\n", kRankTieBand);
    std::fprintf(f, "  \"discordant_pairs\": %zu,\n", discordant);
    std::fprintf(f, "  \"apps\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const AppRow &r = rows[i];
        std::fprintf(f,
                     "    {\"app\": \"%s\", \"open_loop_worst_mean\": "
                     "%.4f, \"ips_delta\": %.4f, \"power_delta\": %.4f, "
                     "\"cycle_exd\": %.17g, \"analytic_exd\": %.17g}%s\n",
                     r.app.c_str(), r.openLoopWorstMean, r.ipsDelta,
                     r.powerDelta, r.cycleExd, r.analyticExd,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"pass\": %s\n}\n", pass ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_fidelity.json\n");
    std::printf("verdict: %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
