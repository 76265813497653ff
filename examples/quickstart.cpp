/**
 * @file
 * Quickstart: design a MIMO controller for the simulated processor and
 * track an (IPS, power) reference pair on one application.
 *
 * This walks the paper's Fig. 3 flow end to end:
 *   1. pick the knob space (frequency + cache size),
 *   2. run black-box identification experiments on the training apps,
 *   3. validate the model and run robust stability analysis,
 *   4. build the LQG controller and close the loop.
 *
 * Build & run:  ./examples/quickstart [app] [ips0] [power0]
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
    const std::string app_name = argc > 1 ? argv[1] : "povray";
    const double ips0 = argc > 2 ? std::atof(argv[2]) : 2.0;
    const double power0 = argc > 3 ? std::atof(argv[3]) : 2.0;

    // 1. The knob space: DVFS (16 levels) + cache way-gating (4
    //    settings). Pass `true` to add the ROB knob.
    KnobSpace knobs(false);

    // 2-3. Identification, validation, LQG design, RSA (Fig. 3).
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 800;
    cfg.validationEpochsPerApp = 400;
    MimoControllerDesign flow(knobs, cfg);
    std::printf("designing the MIMO controller (system identification "
                "on sjeng/gobmk/leslie3d/namd)...\n");
    const MimoDesignResult design = flow.design(
        Spec2006Suite::trainingSet(), Spec2006Suite::validationSet());
    std::printf("  model dimension: %zu\n", design.model.stateDim());
    std::printf("  validation mean error: IPS %.1f%%, power %.1f%%\n",
                100 * design.validation.meanRelError[0],
                100 * design.validation.meanRelError[1]);
    std::printf("  robust stability: %s (peak gain %.3f, guardbands "
                "50%%/30%%)\n",
                design.rsa.ok() ? "PASS" : "FAIL", design.rsa.peakGain);

    // 4. Close the loop on the chosen application.
    auto controller = flow.buildController(design);
    controller->setReference(ips0, power0);
    SimPlant plant(Spec2006Suite::byName(app_name), knobs);

    DriverConfig dcfg;
    dcfg.epochs = 2000;
    dcfg.recordTrace = true;
    dcfg.errorSkipEpochs = 300;
    EpochDriver driver(plant, *controller, dcfg);
    KnobSettings init; // start well off-target
    init.freqLevel = 3;
    init.cacheSetting = 1;
    std::printf("\ntracking (%.2f BIPS, %.2f W) on %s...\n", ips0,
                power0, app_name.c_str());
    const RunSummary sum = driver.run(init);

    const EpochTrace &tr = driver.trace();
    std::printf("  final outputs: %.2f BIPS, %.2f W at %.1f GHz, "
                "cache setting %u\n",
                tr.ips.back(), tr.power.back(),
                DvfsController::freqAtLevel(tr.freqLevel.back()),
                tr.cacheSetting.back());
    std::printf("  average tracking error: IPS %.1f%%, power %.1f%%\n",
                sum.avgIpsErrorPct, sum.avgPowerErrorPct);
    std::printf("  epochs to steady state: freq %ld, cache %ld\n",
                sum.steadyEpochFreq, sum.steadyEpochCache);
    return 0;
}
