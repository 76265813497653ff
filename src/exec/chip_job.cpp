#include "exec/chip_job.hpp"

#include <utility>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "core/controllers.hpp"
#include "exec/plant_factory.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch::exec {

namespace {

std::unique_ptr<ArchController>
makeCoreController(const ChipJobConfig &cfg, const KnobSpace &knobs)
{
    const MimoControllerDesign flow(knobs, *cfg.cfg);
    std::unique_ptr<MimoArchController> mimo =
        flow.buildController(*cfg.design);
    mimo->setReference(cfg.cfg->ipsReference, cfg.cfg->powerReference);
    return mimo;
}

} // namespace

ChipResult
runChipJob(const ChipJobConfig &cfg, const JobContext &ctx)
{
    if (!cfg.cfg || !cfg.design)
        fatal("runChipJob: null ExperimentConfig or design");
    const size_t n = cfg.apps.size();
    if (n == 0 || n != cfg.cfg->chip.nCores ||
        n > chip::kMaxChipCores) {
        fatal("runChipJob: ", n, " apps for a ", cfg.cfg->chip.nCores,
              "-core chip (max ", chip::kMaxChipCores, ")");
    }

    const KnobSpace knobs(false);
    const uint64_t seed = jobSeed(ctx.key);

    std::vector<chip::ChipCore> cores;
    cores.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        chip::ChipCore core;
        core.app = cfg.apps[i];
        // Per-core salt: the job seed XOR-folded with the core index,
        // so cores of one chip are decorrelated while the whole chip
        // stays a pure function of the job key.
        const uint64_t salt = splitmix64(seed ^ (0xC0FFEEULL + i));
        core.plant = makePlant(Spec2006Suite::byName(cfg.apps[i]), knobs,
                               *cfg.cfg, {}, salt);
        core.controller = makeCoreController(cfg, knobs);
        cores.push_back(std::move(core));
    }

    ChipConfig chip_cfg = cfg.cfg->chip;
    if (chip_cfg.powerEnvelopeW <= 0.0)
        chip_cfg.powerEnvelopeW =
            static_cast<double>(n) * cfg.cfg->powerReference;

    DriverConfig dcfg;
    dcfg.epochs = cfg.epochs;
    dcfg.errorSkipEpochs = cfg.errorSkipEpochs;
    dcfg.recordTrace = true;
    dcfg.fidelity = cfg.cfg->fidelity;
    dcfg.cancel = &ctx.cancel;

    chip::ChipInstance inst(std::move(cores), chip_cfg, dcfg);
    const chip::ChipRunSummary sum =
        inst.run(cfg.initial, hardwareThreads());

    ChipResult r;
    r.nCores = n;
    r.fidelity = static_cast<uint64_t>(cfg.cfg->fidelity);
    r.chipDigest = chip::digest(sum);
    for (size_t i = 0; i < n; ++i) {
        r.coreTraceDigest[i] = digest(inst.coreTrace(i));
        r.ipsErrPct[i] = sum.cores[i].avgIpsErrorPct;
        r.powerErrPct[i] = sum.cores[i].avgPowerErrorPct;
    }
    r.chipEnergyJ = sum.chipEnergyJ;
    r.chipTimeS = sum.chipTimeS;
    r.chipInstrB = sum.chipInstrB;
    r.exd = sum.exdMetric(chip_cfg.metricExponent);
    r.arbiterRounds = sum.arbiterRounds;
    r.retargets = sum.retargets;
    r.wayMoves = sum.wayMoves;
    return r;
}

} // namespace mimoarch::exec
