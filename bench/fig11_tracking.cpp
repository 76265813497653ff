/**
 * @file
 * Fig. 11 reproduction: tracking multiple references. Every production
 * application runs under MIMO, Heuristic, and Decoupled, tracking the
 * (IPS, power) reference pair; the bench reports the average IPS and
 * power errors, split into responsive and non-responsive applications
 * exactly as the paper does.
 *
 * One job per application (3 runs each), sharded with --jobs N.
 *
 * Exit status is the paper-shape verdict: 0 when MIMO's
 * responsive-average IPS error is below both Heuristic's and
 * Decoupled's, 1 otherwise.
 */

#include "bench_common.hpp"

using namespace mimoarch;
using namespace mimoarch::bench;

int
main(int argc, char **argv)
{
    const exec::SweepOptions sweep_opt = benchSweepOptions(argc, argv);
    exec::SweepRunner runner(sweep_opt);
    banner("Fig. 11: tracking multiple references (all production apps)");
    const ExperimentConfig cfg = benchConfig(sweep_opt);
    const auto design = cachedDesign(false);
    const auto siso = cachedSisoModels();
    const auto apps = figureAppOrder();

    struct Row
    {
        double ips[3] = {0, 0, 0};
        double power[3] = {0, 0, 0};
    };
    std::vector<exec::JobKey> keys;
    for (const std::string &app : apps)
        keys.push_back({app, "tracking", 0, 0});
    const std::vector<Row> rows =
        runner
            .mapJobs<Row>(keys, cfg.fingerprint(),
                          [&](const exec::JobContext &ctx) {
            const AppSpec &app = Spec2006Suite::byName(ctx.key.app);
            const KnobSpace knobs(false);
            const MimoControllerDesign flow(knobs, cfg);

            auto mimo = flow.buildController(*design);
            auto decoupled = flow.buildDecoupled(siso->cacheToIps,
                                                 siso->freqToPower);
            HeuristicArchController heuristic(knobs, {}, cfg.ipsReference,
                                              cfg.powerReference);
            ArchController *ctrls[3] = {mimo.get(), &heuristic,
                                        decoupled.get()};

            Row row;
            for (size_t a = 0; a < 3; ++a) {
                ctrls[a]->setReference(cfg.ipsReference,
                                       cfg.powerReference);
                auto plant = exec::makePlant(app, knobs, cfg);
                DriverConfig dcfg;
                dcfg.epochs = 1800;
                dcfg.errorSkipEpochs = 300;
                dcfg.fidelity = cfg.fidelity;
                dcfg.cancel = &ctx.cancel;
                EpochDriver driver(*plant, *ctrls[a], dcfg);
                const RunSummary sum = driver.run(offTargetStart());
                row.ips[a] = sum.avgIpsErrorPct;
                row.power[a] = sum.avgPowerErrorPct;
            }
            return row;
        })
            .results;

    const char *arch_names[3] = {"MIMO", "Heuristic", "Decoupled"};
    CsvTable table({"app", "responsive", "arch", "ips_err_pct",
                    "power_err_pct"});
    std::printf("%-11s %-5s | %-22s | %-22s | %-22s\n", "", "",
                "MIMO  (ips%, p%)", "Heuristic (ips%, p%)",
                "Decoupled (ips%, p%)");

    struct Acc
    {
        double ips = 0, power = 0;
        int n = 0;
    };
    Acc resp[3], nonresp[3];
    for (size_t i = 0; i < apps.size(); ++i) {
        const AppSpec &app = Spec2006Suite::byName(apps[i]);
        const Row &row = rows[i];
        std::printf("%-11s %-5s |", apps[i].c_str(),
                    app.responsive ? "resp" : "non");
        for (size_t a = 0; a < 3; ++a) {
            std::printf("  %8.1f %8.1f    |", row.ips[a], row.power[a]);
            table.addRow({apps[i], app.responsive ? "1" : "0",
                          arch_names[a], formatCell(row.ips[a]),
                          formatCell(row.power[a])});
            Acc &acc = app.responsive ? resp[a] : nonresp[a];
            acc.ips += row.ips[a];
            acc.power += row.power[a];
            ++acc.n;
        }
        std::printf("\n");
    }

    std::printf("\n%-24s %10s %10s %10s\n", "average (responsive)",
                "MIMO", "Heuristic", "Decoupled");
    std::printf("%-24s %10.1f %10.1f %10.1f   <- IPS err %%\n", "",
                resp[0].ips / resp[0].n, resp[1].ips / resp[1].n,
                resp[2].ips / resp[2].n);
    std::printf("%-24s %10.1f %10.1f %10.1f   <- power err %%\n", "",
                resp[0].power / resp[0].n, resp[1].power / resp[1].n,
                resp[2].power / resp[2].n);
    std::printf("%-24s %10.1f %10.1f %10.1f   <- IPS err %% "
                "(non-responsive)\n", "",
                nonresp[0].ips / nonresp[0].n,
                nonresp[1].ips / nonresp[1].n,
                nonresp[2].ips / nonresp[2].n);
    table.writeFile("fig11_tracking.csv");
    std::printf("# paper shape: responsive-average IPS error "
                "MIMO (7%%) < Heuristic (13%%) < Decoupled (24%%); all "
                "architectures track power; non-responsive apps look "
                "similar everywhere.\n");
    const double mimo_ips = resp[0].ips / resp[0].n;
    const bool pass = mimo_ips < resp[1].ips / resp[1].n &&
                      mimo_ips < resp[2].ips / resp[2].n;
    std::printf("# verdict: %s (responsive-average IPS error: MIMO below "
                "Heuristic and Decoupled)\n",
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
