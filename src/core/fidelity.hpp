/**
 * @file
 * Plant fidelity tiers (DESIGN.md §13). Following SimEng's selectable
 * simulation modes, every run picks how the controlled system is
 * produced:
 *
 *   - CycleLevel: the cycle-level processor model (SimPlant) — the
 *     ground truth every design and golden digest is anchored to.
 *   - Analytic: the identified state-space response surface plus
 *     calibrated noise (SurrogatePlant, src/plant) — ~100x+ faster,
 *     valid for relative comparisons on calibrated workloads.
 *
 * The selector lives in core (not src/plant) because ExperimentConfig
 * folds it into fingerprint(): an analytic sweep must never share a
 * checkpoint journal or cache entry with a cycle-level one.
 */

#pragma once

#include <cstdint>

namespace mimoarch {

/** Which plant tier a run steps. Defaults everywhere to CycleLevel. */
enum class PlantFidelity : uint8_t {
    CycleLevel = 0, //!< Cycle-level simulator (ground truth).
    Analytic = 1,   //!< Identified response surface + calibrated noise.
};

} // namespace mimoarch
