/**
 * @file
 * Fast Optimization Leveraging Tracking (paper §V, use 3): minimize
 * E x D^(k-1) by layering the reference-space optimizer on top of the
 * MIMO tracking controller. The exponent k parameterizes the objective
 * (k=1: energy, k=2: E x D, k=3: E x D^2) — the controller and the
 * optimizer are reused unmodified across objectives.
 *
 * Build & run:  ./examples/energy_tuning [app] [k]
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
    const std::string app_name = argc > 1 ? argv[1] : "dealII";
    const unsigned k = argc > 2
        ? static_cast<unsigned>(std::atoi(argv[2])) : 2;
    if (k < 1 || k > 4) {
        std::fprintf(stderr, "k must be 1..4\n");
        return 1;
    }

    KnobSpace knobs(false);
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 800;
    cfg.validationEpochsPerApp = 400;
    MimoControllerDesign flow(knobs, cfg);
    std::printf("designing the MIMO controller...\n");
    const MimoDesignResult design = flow.design(
        Spec2006Suite::trainingSet(), Spec2006Suite::validationSet());
    auto controller = flow.buildController(design);

    // Baseline: the fixed best-static configuration (Table III).
    KnobSettings base;
    base.freqLevel = 8;
    base.cacheSetting = 2;

    SimPlant pb(Spec2006Suite::byName(app_name), knobs);
    FixedController fixed(base);
    DriverConfig bcfg;
    bcfg.epochs = 2500;
    EpochDriver bd(pb, fixed, bcfg);
    const RunSummary bs = bd.run(base);

    // MIMO + optimizer run on the same workload.
    SimPlant pm(Spec2006Suite::byName(app_name), knobs);
    DriverConfig mcfg;
    mcfg.epochs = 2500;
    mcfg.recordTrace = true;
    mcfg.useOptimizer = true;
    mcfg.optimizer.metricExponent = k;
    EpochDriver md(pm, *controller, mcfg);
    const RunSummary ms = md.run(base);

    const char *names[] = {"", "E", "ExD", "ExD^2", "ExD^3"};
    std::printf("\n%s, objective %s:\n", app_name.c_str(), names[k]);
    std::printf("  Baseline (1.3 GHz, (6,3) assoc): %.4g\n",
                bs.exdMetric(k));
    std::printf("  MIMO + optimizer:                %.4g  (%.1f%% %s)\n",
                ms.exdMetric(k),
                100 * std::abs(1 - ms.exdMetric(k) / bs.exdMetric(k)),
                ms.exdMetric(k) < bs.exdMetric(k) ? "better" : "worse");
    const EpochTrace &tr = md.trace();
    std::printf("  resting point: %.2f BIPS at %.2f W "
                "(%.1f GHz, cache setting %u)\n",
                tr.ips.back(), tr.power.back(),
                DvfsController::freqAtLevel(tr.freqLevel.back()),
                tr.cacheSetting.back());
    return 0;
}
