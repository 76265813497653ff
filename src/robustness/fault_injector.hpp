/**
 * @file
 * Deterministic fault injection for the control loop.
 *
 * The paper's case for formal MIMO control is robustness to modelling
 * error (§III-B); production loops additionally face *measurement*
 * corruption and *actuation* failure. FaultInjector synthesizes both
 * from a seeded schedule (FaultScheduleConfig) so robustness
 * experiments replay exactly:
 *
 *   Sensor faults    — NaN/Inf samples, stuck-at (reading freezes),
 *                      spike outliers, dropouts (reading goes to zero),
 *                      and slow bias drift.
 *   Actuator faults  — dropped DVFS transitions, lagged DVFS
 *                      transitions, and stuck cache-way gating.
 *
 * The injector sits between the plant and the controller (see
 * FaultyPlant): it corrupts what the controller *sees* and what the
 * hardware *does*, never the simulator's internal state.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/random.hpp"
#include "core/knobs.hpp"
#include "linalg/matrix.hpp"

namespace mimoarch {

/**
 * Deterministic fault schedule for robustness experiments: plain data
 * the FaultInjector consumes. Rates are per epoch; everything draws
 * from @ref seed, so a given (config, seed) pair replays the exact
 * same fault sequence.
 */
struct FaultScheduleConfig
{
    bool enabled = false;
    uint64_t seed = 0xFA171;

    /** Probability per epoch that a sensor fault event starts. */
    double sensorFaultRate = 0.0;
    /** Probability per epoch that an actuator fault event starts. */
    double actuatorFaultRate = 0.0;

    /** Epoch window in which faults may fire. */
    size_t startEpoch = 0;
    size_t endEpoch = SIZE_MAX;

    // Relative mix of the sensor fault classes (need not sum to 1).
    double weightNaN = 1.0;      //!< Reading becomes NaN/Inf.
    double weightStuckAt = 1.0;  //!< Reading freezes at its last value.
    double weightSpike = 1.0;    //!< Reading multiplied by spikeFactor.
    double weightDropout = 1.0;  //!< Reading goes to zero.
    double weightDrift = 1.0;    //!< Reading accumulates relative bias.

    double spikeFactor = 8.0;     //!< Outlier magnitude multiplier.
    double driftPerEpoch = 0.01;  //!< Relative bias added per epoch.
    size_t stuckEpochs = 25;      //!< Duration of a stuck-at event.
    size_t dropoutEpochs = 3;     //!< Duration of a dropout event.
    size_t driftEpochs = 150;     //!< Duration of a drift event.

    // Actuator fault mix and durations.
    double weightDropTransition = 1.0;  //!< DVFS command ignored.
    double weightLagTransition = 1.0;   //!< DVFS applied N epochs late.
    double weightStuckCache = 1.0;      //!< Way-gating frozen.
    size_t lagEpochs = 4;               //!< DVFS lag length.
    size_t cacheStuckEpochs = 40;       //!< Way-gating freeze length.
};

/** Sensor fault classes (per output channel). */
enum class SensorFaultKind {
    None,
    NonFinite, //!< NaN or +/-Inf sample.
    StuckAt,   //!< Reading frozen at its value when the fault began.
    Spike,     //!< Reading multiplied or divided by spikeFactor.
    Dropout,   //!< Reading reads zero.
    Drift,     //!< Reading accumulates relative bias over time.
};

/** Actuator fault classes. */
enum class ActuatorFaultKind {
    None,
    DropTransition, //!< A requested DVFS level change is ignored.
    LagTransition,  //!< DVFS changes apply lagEpochs late.
    StuckCache,     //!< Way gating frozen at the current setting.
};

/** Counters of everything the injector did. */
struct FaultInjectorStats
{
    unsigned long sensorEvents = 0;   //!< Fault episodes started.
    unsigned long nonFinite = 0;      //!< Corrupted epochs per class.
    unsigned long stuckAt = 0;
    unsigned long spikes = 0;
    unsigned long dropouts = 0;
    unsigned long driftEpochs = 0;
    unsigned long actuatorEvents = 0;
    unsigned long droppedTransitions = 0;
    unsigned long laggedTransitions = 0;
    unsigned long stuckCacheEpochs = 0;

    unsigned long
    corruptedSensorEpochs() const
    {
        return nonFinite + stuckAt + spikes + dropouts + driftEpochs;
    }
};

/** Seeded sensor/actuator corruption on a per-epoch schedule. */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultScheduleConfig &config);

    /**
     * Corrupt the sensor vector for @p epoch. Call exactly once per
     * epoch with monotonically increasing epochs — the draw sequence
     * is what makes the schedule deterministic.
     */
    Matrix corruptSensors(size_t epoch, const Matrix &y_true);

    /**
     * Corrupt the actuator command for @p epoch: returns the settings
     * the hardware will actually apply. Call once per epoch, before
     * the plant step.
     */
    KnobSettings corruptActuators(size_t epoch,
                                  const KnobSettings &requested);

    /** Restart the schedule from the seed. */
    void reset();

    const FaultInjectorStats &stats() const { return stats_; }

  private:
    struct SensorChannel
    {
        SensorFaultKind active = SensorFaultKind::None;
        size_t remaining = 0;
        double stuckValue = 0.0;
        double driftBias = 0.0;    //!< Accumulated relative bias.
        double driftStep = 0.0;    //!< Signed per-epoch increment.
        bool spikeUp = false;
        bool nonFiniteInf = false; //!< Inf instead of NaN.
    };

    struct ActuatorState
    {
        ActuatorFaultKind active = ActuatorFaultKind::None;
        size_t remaining = 0;
        unsigned heldFreqLevel = 0;
        unsigned stuckCacheSetting = 0;
        bool haveApplied = false;
        KnobSettings lastApplied{};
    };

    SensorFaultKind pickSensorKind();
    ActuatorFaultKind pickActuatorKind();
    void startSensorFault(SensorChannel &ch, double current_value);

    FaultScheduleConfig config_;
    Rng rng_;
    std::vector<SensorChannel> sensors_;
    ActuatorState actuator_;
    FaultInjectorStats stats_;
};

} // namespace mimoarch
