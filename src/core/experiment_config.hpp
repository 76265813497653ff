/**
 * @file
 * Default control and experiment parameters (the paper's Table III),
 * plus the tracking references used by this reproduction.
 *
 * The paper's reference point (2.5 BIPS / 2 W) came from a design-space
 * exploration over its training set on its ESESC/A15 infrastructure.
 * Our substrate's envelope differs (see DESIGN.md), so the analogous
 * DSE over our training set yields 2.0 BIPS / 2.0 W; the responsive /
 * non-responsive application split is preserved exactly.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/hash.hpp"
#include "control/lqg.hpp"
#include "core/fidelity.hpp"
#include "sysid/arx.hpp"
#include "sysid/waveform.hpp"

namespace mimoarch {

/**
 * Multi-core chip topology for chip-level experiments (DESIGN.md §14).
 * Plain data: ChipInstance (src/chip) consumes it; single-core
 * experiments leave it at the defaults (1 core, arbiter off), which is
 * fingerprint-stable but semantically identical to no chip at all.
 */
struct ChipConfig
{
    unsigned nCores = 1;
    /** Shared-L2 ways partitioned across cores (the L2 geometry). */
    unsigned l2Ways = 8;
    /** Chip power envelope in W; <= 0 means nCores * powerReference. */
    double powerEnvelopeW = 0.0;
    /** Arbiter cadence in epochs (the slow outer loop). */
    uint64_t arbiterPeriodEpochs = 200;
    bool arbiterEnabled = false;
    /** k in the chip-wide IPS^k / P score (k=2 -> E x D). */
    unsigned metricExponent = 2;
};

/** Table III parameters. */
struct ExperimentConfig
{
    // Input/output weights (Table III, exact values).
    double powerWeight = 10000.0;
    double ipsWeight = 10.0;
    double freqWeight = 0.01;
    double cacheWeight = 0.0005;
    double robWeight = 0.001;

    // Model and uncertainty.
    size_t stateDimension = 4;      //!< Dimensions of system state.
    double ipsGuardband = 0.50;     //!< 50% for IPS.
    double powerGuardband = 0.30;   //!< 30% for power.

    // Invocation period. Table III's optimizer period (10 ms) and trial
    // budget (10) are not modelled; see optimizer.hpp.
    double epochSeconds = 50e-6; //!< Controller: every 50 us.

    // Tracking references (this reproduction's training-set DSE).
    double ipsReference = 2.0;   //!< BIPS (paper: 2.5 on its substrate).
    double powerReference = 2.0; //!< W (paper: 2 W).

    // Identification.
    size_t sysidEpochsPerApp = 1200;
    size_t validationEpochsPerApp = 600;
    uint64_t warmupEpochs = 150; //!< Fast-forward analogue.

    // Substrate calibration (the §IV-B2 "experiment with MATLAB" step).
    // Table III's weight *ratios* are kept exactly; this overall
    // output-to-input ratio is tuned per substrate so the closed loop
    // is neither ripply nor sluggish (Fig. 4). The measurement-noise
    // inflation is the estimator-side uncertainty guardband: production
    // applications deviate from the identified model far more than the
    // training residuals suggest, so the Kalman filter must not chase
    // every innovation.
    double inputWeightScale = 1e5;
    double measurementNoiseInflation = 100.0;

    /**
     * Plant tier this experiment runs against (DESIGN.md §13). Folded
     * into fingerprint() so analytic sweeps journal and cache under a
     * distinct identity; design-flow products key on
     * designFingerprint() instead, because controllers are always
     * designed against the cycle-level substrate regardless of the
     * tier they are later run at.
     */
    PlantFidelity fidelity = PlantFidelity::CycleLevel;

    /** Chip topology for multi-core experiments (defaults = no chip). */
    ChipConfig chip{};

    /** LQG weights for a 2- or 3-input design, y = [IPS, power]. */
    LqgWeights
    lqgWeights(bool with_rob) const
    {
        LqgWeights w;
        w.outputWeights = {ipsWeight, powerWeight};
        w.inputWeights = {freqWeight * inputWeightScale,
                          cacheWeight * inputWeightScale};
        if (with_rob)
            w.inputWeights.push_back(robWeight * inputWeightScale);
        return w;
    }

    /** ARX order for the requested state dimension (N = outputs * k). */
    ArxConfig
    arxConfig() const
    {
        ArxConfig c;
        c.order = (stateDimension + 1) / 2;
        return c;
    }

    /**
     * Stable 64-bit fingerprint over every field that influences the
     * design flow or a run (doubles by bit pattern). Two configs with
     * equal fingerprints produce bit-identical designs; the DesignCache
     * in src/exec keys memoized MimoControllerDesign::design() results
     * on this. Extend this hash whenever a field is added.
     */
    uint64_t
    fingerprint() const
    {
        Fnv64 h;
        h.f64(powerWeight).f64(ipsWeight).f64(freqWeight)
            .f64(cacheWeight).f64(robWeight);
        h.u64(stateDimension).f64(ipsGuardband).f64(powerGuardband);
        h.f64(epochSeconds);
        h.f64(ipsReference).f64(powerReference);
        h.u64(sysidEpochsPerApp).u64(validationEpochsPerApp)
            .u64(warmupEpochs);
        h.f64(inputWeightScale).f64(measurementNoiseInflation);
        h.u64(static_cast<uint64_t>(fidelity));
        h.u64(chip.nCores).u64(chip.l2Ways).f64(chip.powerEnvelopeW);
        h.u64(chip.arbiterPeriodEpochs).u64(chip.arbiterEnabled ? 1 : 0);
        h.u64(chip.metricExponent);
        return h.value();
    }

    /**
     * fingerprint() with the fidelity selector normalized to
     * CycleLevel: the identity of everything produced by the *design
     * flow* (models, gains, surrogate calibrations), which always runs
     * the cycle-level simulator. Keying the DesignCache on this keeps
     * an analytic run sharing the exact same design products as its
     * cycle-level twin instead of re-identifying them.
     */
    uint64_t
    designFingerprint() const
    {
        ExperimentConfig c = *this;
        c.fidelity = PlantFidelity::CycleLevel;
        // Chip topology shapes runs, not the per-core design flow:
        // chips of any shape share design products with their
        // single-core twin.
        c.chip = ChipConfig{};
        return c.fingerprint();
    }
};

} // namespace mimoarch
