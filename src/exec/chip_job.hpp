/**
 * @file
 * Chip jobs: one SweepRunner job runs a whole ChipInstance.
 *
 * The scalar sweep shape is one (plant, controller) pair per job; the
 * chip shape is one N-core chip per job. The sweep runs chips in
 * parallel, and inside a chip the job also steps the cores in parallel
 * between arbitration rounds (ChipInstance::run on hardwareThreads()
 * threads).
 * runChipJob() obeys the SweepRunner determinism contract — all
 * randomness derives from jobSeed(ctx.key) (per-core plants salt it
 * with their core index), each attempt builds its own chip, and the
 * cancellation token is polled every epoch through the drivers — so
 * chip sweeps retry, resume, and digest bit-identically across worker
 * counts exactly like scalar ones. ChipResult is trivially copyable,
 * so --resume journals it.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chip/chip.hpp"
#include "core/design_flow.hpp"
#include "core/experiment_config.hpp"
#include "exec/resilient.hpp"

namespace mimoarch::exec {

/** One chip job: cfg.chip.nCores cores, one app name per core. */
struct ChipJobConfig
{
    /** Experiment parameters; cfg->chip is the chip topology. */
    const ExperimentConfig *cfg = nullptr;
    /** Shared per-core controller design (immutable). */
    std::shared_ptr<const MimoDesignResult> design;
    /** Per-core apps; size must equal cfg->chip.nCores. */
    std::vector<std::string> apps;

    size_t epochs = 600;
    size_t errorSkipEpochs = 200;
    KnobSettings initial{};
};

/** Journalable summary of one chip job (trivially copyable). */
struct ChipResult
{
    uint64_t nCores = 0;
    uint64_t fidelity = 0; //!< PlantFidelity the chip ran at.
    uint64_t chipDigest = 0; //!< digest(ChipRunSummary).
    uint64_t coreTraceDigest[chip::kMaxChipCores] = {};
    double ipsErrPct[chip::kMaxChipCores] = {};
    double powerErrPct[chip::kMaxChipCores] = {};
    double chipEnergyJ = 0.0;
    double chipTimeS = 0.0;
    double chipInstrB = 0.0;
    double exd = 0.0; //!< Chip-wide E x D^(metricExponent - 1).
    uint64_t arbiterRounds = 0;
    uint64_t retargets = 0;
    uint64_t wayMoves = 0;
};

/**
 * Build an nCores-core chip from @p cfg, run it for cfg.epochs epochs,
 * and summarize. A non-positive cfg->chip.powerEnvelopeW resolves to
 * nCores x cfg->powerReference.
 * Deterministic in ctx.key; throws CanceledError when ctx.cancel is
 * set. fatal()s on a malformed config (null cfg/design, app count
 * mismatch) — a bench bug, not a per-job fault.
 */
ChipResult runChipJob(const ChipJobConfig &cfg, const JobContext &ctx);

} // namespace mimoarch::exec
