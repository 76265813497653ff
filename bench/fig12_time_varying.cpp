/**
 * @file
 * Fig. 12 reproduction: time-varying tracking. A QoE/battery agent
 * lowers the (IPS, power) targets as a 1 J battery drains (2,000-epoch
 * update period); the bench prints the IPS-vs-time series for astar and
 * milc under MIMO, Heuristic, and Decoupled alongside the reference.
 *
 * One job per (app, architecture) trace, sharded with --jobs N.
 *
 * Exit status is the paper-shape verdict: 0 when MIMO's mean
 * |IPS - ref| is below both Heuristic's and Decoupled's on astar and on
 * milc, 1 otherwise.
 */

#include "bench_common.hpp"

using namespace mimoarch;
using namespace mimoarch::bench;

int
main(int argc, char **argv)
{
    const exec::SweepOptions sweep_opt = benchSweepOptions(argc, argv);
    requireCycleLevel(sweep_opt, "fig12 drives time-varying phase schedules "
                                 "the static surrogate cannot represent");
    exec::SweepRunner runner(sweep_opt);
    banner("Fig. 12: time-varying tracking (astar, milc; QoE schedule)");
    const ExperimentConfig cfg = benchConfig();
    const auto design = cachedDesign(false);
    const auto siso = cachedSisoModels();

    const std::vector<std::string> apps = {"astar", "milc"};
    const char *arch_names[3] = {"MIMO", "Heuristic", "Decoupled"};
    const size_t epochs = 10000; // the paper's Fig. 12 x-range

    // Job (app, arch) -> the run's full trace; rows land in a fixed
    // slot so the emitted series are schedule-independent.
    std::vector<exec::JobKey> keys;
    for (const std::string &app : apps)
        for (size_t a = 0; a < 3; ++a)
            keys.push_back({app, arch_names[a], a, 0});
    const std::vector<EpochTrace> traces =
        runner
            .mapJobs<EpochTrace>(keys, benchFingerprint(),
                                 [&](const exec::JobContext &ctx) {
            const std::string &name = ctx.key.app;
            const size_t a = ctx.key.config;
            const KnobSpace knobs(false);
            const MimoControllerDesign flow(knobs, cfg);

            auto mimo = flow.buildController(*design);
            auto decoupled = flow.buildDecoupled(siso->cacheToIps,
                                                 siso->freqToPower);
            HeuristicArchController heuristic(knobs, {}, cfg.ipsReference,
                                              cfg.powerReference);
            ArchController *ctrls[3] = {mimo.get(), &heuristic,
                                        decoupled.get()};

            QoeBatteryConfig qcfg;
            qcfg.initialEnergyJoules = 1.0;
            qcfg.updatePeriodEpochs = 2000;
            qcfg.initialIps = cfg.ipsReference;
            qcfg.initialPower = cfg.powerReference;
            QoeBatteryModel battery(qcfg);
            ctrls[a]->setReference(cfg.ipsReference, cfg.powerReference);
            SimPlant plant(Spec2006Suite::byName(name), knobs);
            DriverConfig dcfg;
            dcfg.epochs = epochs;
            dcfg.cancel = &ctx.cancel;
            EpochDriver driver(plant, *ctrls[a], dcfg, &battery);
            driver.run(KnobSettings{});
            return driver.trace();
        })
            .results;

    bool pass = true;
    for (size_t ai = 0; ai < apps.size(); ++ai) {
        const std::string &name = apps[ai];
        const EpochTrace *app_traces = &traces[ai * 3];

        // Tracking quality: mean |IPS - ref| over the run.
        std::printf("%s: mean |IPS - ref| (BIPS): ", name.c_str());
        double mean_err[3];
        for (size_t a = 0; a < 3; ++a) {
            double err = 0;
            for (size_t t = 200; t < epochs; ++t)
                err += std::abs(app_traces[a].ips[t] -
                                app_traces[a].refIps[t]);
            mean_err[a] = err / static_cast<double>(epochs - 200);
            std::printf("%s=%.3f  ", arch_names[a], mean_err[a]);
        }
        std::printf("\n");
        pass = pass && mean_err[0] < mean_err[1] && mean_err[0] < mean_err[2];

        // Decimated series for the figure.
        CsvTable table({"epoch", "reference", "MIMO", "Heuristic",
                        "Decoupled"});
        for (size_t t = 0; t < epochs; t += 100) {
            const auto avg = [&](const std::vector<double> &v) {
                double s = 0;
                for (size_t i = t; i < t + 100 && i < epochs; ++i)
                    s += v[i];
                return s / 100.0;
            };
            table.addRow({std::to_string(t),
                          formatCell(avg(app_traces[0].refIps)),
                          formatCell(avg(app_traces[0].ips)),
                          formatCell(avg(app_traces[1].ips)),
                          formatCell(avg(app_traces[2].ips))});
        }
        table.writeFile("fig12_" + name + ".csv");
    }
    std::printf("# paper shape: MIMO hugs the stepping-down reference; "
                "Heuristic and Decoupled sit below it.\n");
    std::printf("# verdict: %s (mean |IPS - ref|: MIMO below Heuristic "
                "and Decoupled on astar and milc)\n",
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
