/**
 * @file
 * Time-Varying Tracking (paper §V, use 2): a battery-powered device
 * lowers its performance and power targets as the battery drains, using
 * the QoE schedule; the MIMO controller follows the moving references.
 *
 * Build & run:  ./examples/battery_aware [app] [battery_joules]
 */

#include <cstdio>
#include <cstdlib>

#include "core/design_flow.hpp"
#include "core/harness.hpp"
#include "workload/spec_suite.hpp"

using namespace mimoarch;

int
main(int argc, char **argv)
{
    const std::string app_name = argc > 1 ? argv[1] : "astar";
    const double battery_j = argc > 2 ? std::atof(argv[2]) : 0.5;

    KnobSpace knobs(false);
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 800;
    cfg.validationEpochsPerApp = 400;
    MimoControllerDesign flow(knobs, cfg);
    std::printf("designing the MIMO controller...\n");
    const MimoDesignResult design = flow.design(
        Spec2006Suite::trainingSet(), Spec2006Suite::validationSet());
    auto controller = flow.buildController(design);
    controller->setReference(cfg.ipsReference, cfg.powerReference);

    // The high-level agent: a QoE/battery model stepping the targets
    // down every 2,000 epochs (100 ms) as charge drains.
    QoeBatteryConfig qcfg;
    qcfg.initialEnergyJoules = battery_j;
    qcfg.updatePeriodEpochs = 2000;
    qcfg.initialIps = cfg.ipsReference;
    qcfg.initialPower = cfg.powerReference;
    QoeBatteryModel battery(qcfg);

    SimPlant plant(Spec2006Suite::byName(app_name), knobs);
    DriverConfig dcfg;
    dcfg.epochs = 10000;
    dcfg.recordTrace = true;
    EpochDriver driver(plant, *controller, dcfg, &battery);
    std::printf("running %s on a %.2f J battery (10,000 epochs = "
                "0.5 s)...\n\n", app_name.c_str(), battery_j);
    driver.run(KnobSettings{});

    const EpochTrace &tr = driver.trace();
    std::printf("%8s %10s %10s %10s %8s\n", "epoch", "refIPS", "IPS",
                "power", "freqGHz");
    for (size_t t = 0; t < tr.ips.size(); t += 1000) {
        double ips = 0, pw = 0;
        for (size_t i = t; i < t + 500 && i < tr.ips.size(); ++i) {
            ips += tr.ips[i];
            pw += tr.power[i];
        }
        std::printf("%8zu %10.2f %10.2f %10.2f %8.1f\n", t,
                    tr.refIps[t], ips / 500, pw / 500,
                    DvfsController::freqAtLevel(tr.freqLevel[t]));
    }
    std::printf("\nbattery: %.0f%% charge left after %.3f s of work\n",
                100 * battery.chargeFraction(),
                plant.elapsedSeconds());
    return 0;
}
