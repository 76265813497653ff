/**
 * @file
 * Fidelity-dispatched plant construction (DESIGN.md §13): the one
 * place a bench or test needs to touch to honour --fidelity.
 *
 * CycleLevel returns the regular SimPlant on @p proc. Analytic fetches
 * (or calibrates, once per process per app) the surrogate from the
 * DesignCache and wraps it in a SurrogatePlant; the analytic tier is
 * always calibrated on the default processor, so it ignores @p proc.
 * Both tiers take the same seed_salt and honour the determinism
 * contract: the returned plant's trajectory is a pure function of
 * (app, cfg.designFingerprint(), proc, seed_salt).
 */

#pragma once

#include <memory>

#include "core/plant.hpp"
#include "plant/surrogate.hpp"

namespace mimoarch::exec {

std::unique_ptr<Plant>
makePlant(const AppSpec &app, const KnobSpace &knobs,
          const ExperimentConfig &cfg, const ProcessorConfig &proc = {},
          uint64_t seed_salt = 0);

} // namespace mimoarch::exec
