/**
 * @file
 * The plant abstraction: the controlled system seen by controllers and
 * identification experiments — apply knob settings, advance one epoch,
 * read the (IPS, power) outputs.
 *
 * SimPlant binds the cycle-level processor model to a synthetic
 * application, whose ops a RunAheadStream generates on a thread of
 * its own. Users of the library can control their own systems by
 * implementing Plant.
 */

#pragma once

#include <memory>

#include "core/knobs.hpp"
#include "linalg/matrix.hpp"
#include "sim/processor.hpp"
#include "workload/run_ahead_stream.hpp"

namespace mimoarch {

/** Output vector convention: y = [IPS (BIPS), power (W)]. */
constexpr size_t kOutputIps = 0;
constexpr size_t kOutputPower = 1;
constexpr size_t kNumPlantOutputs = 2;

/** The controlled system interface. */
class Plant
{
  public:
    virtual ~Plant() = default;

    /** The knob space this plant exposes. */
    virtual const KnobSpace &knobs() const = 0;

    /**
     * Apply @p settings, advance one controller epoch, and return the
     * output vector [IPS, power]. The reference points into a
     * plant-owned buffer and is valid until the next step() — this
     * keeps the harness epoch loop allocation-free.
     */
    virtual const Matrix &step(const KnobSettings &settings) = 0;

    /** Current settings. */
    virtual KnobSettings currentSettings() const = 0;

    /**
     * The last step's outputs *before* any sensor corruption — what the
     * hardware actually did, as opposed to what the sensors reported.
     * Fault-injecting decorators override this so the harness can score
     * true tracking error; an empty matrix means "same as step()'s
     * return" (the default for honest plants). References a plant-owned
     * buffer, valid until the next step().
     */
    virtual const Matrix &
    lastTrueOutputs() const
    {
        static const Matrix kNone;
        return kNone;
    }

    /**
     * Chip-level L2 way partition (bit w = L2 way w). Default: no-op,
     * for plants without a shared L2 (synthetic/test plants). SimPlant
     * forwards to the processor; SurrogatePlant approximates by capping
     * the cache knob to the partition's capacity.
     */
    virtual void setL2Partition(uint32_t /*way_mask*/) {}

    /** Auxiliary sensors from the last epoch (for heuristics/phases). */
    virtual double lastL2Mpki() const = 0;
    virtual double lastIpc() const = 0;
    virtual double lastEnergyJoules() const = 0;

    /** Cumulative accounting since construction. */
    virtual double totalEnergyJoules() const = 0;
    virtual double elapsedSeconds() const = 0;
    virtual double totalInstructionsB() const = 0;
};

/** The simulator-backed plant. */
class SimPlant : public Plant
{
  public:
    /**
     * @param app synthetic application to run.
     * @param knob_space 2- or 3-input knob space.
     * @param config simulator configuration.
     * @param seed_salt decorrelates repeated runs of the same app.
     */
    SimPlant(const AppSpec &app, const KnobSpace &knob_space,
             const ProcessorConfig &config = {}, uint64_t seed_salt = 0);

    const KnobSpace &knobs() const override { return knobs_; }
    const Matrix &step(const KnobSettings &settings) override;
    KnobSettings currentSettings() const override;

    /** Warm caches/predictors: run epochs at the current settings
     *  (the analogue of the paper's 10 B-instruction fast-forward). */
    void warmup(size_t epochs);

    const Matrix &lastTrueOutputs() const override { return yOut_; }

    void
    setL2Partition(uint32_t way_mask) override
    {
        proc_.setL2PartitionMask(way_mask);
    }

    double lastL2Mpki() const override { return last_.l2Mpki; }
    double lastIpc() const override { return last_.ipc; }
    double lastEnergyJoules() const override { return last_.energyJoules; }

    double
    totalEnergyJoules() const override
    {
        return proc_.totalEnergyJoules();
    }

    double elapsedSeconds() const override { return proc_.elapsedSeconds(); }

    double
    totalInstructionsB() const override
    {
        return proc_.totalInstructionsB();
    }

    const AppSpec &app() const { return stream_.spec(); }
    const Processor &processor() const { return proc_; }

  private:
    KnobSpace knobs_;
    RunAheadStream stream_;
    Processor proc_;
    EpochOutputs last_;
    Matrix yOut_ = Matrix(kNumPlantOutputs, 1); //!< step() result buffer.
};

} // namespace mimoarch
