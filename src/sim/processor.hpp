/**
 * @file
 * Top-level processor: core + memory hierarchy + DVFS + power readout,
 * advanced in controller epochs.
 *
 * Epochs use ESESC-style time-based sampling: a 50 us epoch at frequency
 * f spans f * 50e-6 cycles, of which up to sampleCycles are simulated in
 * detail; IPS and power are extrapolated from the sample (IPS = IPC * f,
 * P = E_per_cycle * f + leakage), which is exact under within-epoch
 * stationarity. Actuation overheads (DVFS transitions, cache-way gating
 * flushes, ROB drains) are charged as epoch stall time.
 */

#pragma once

#include <cstdint>
#include <memory>

#include "power/energy_model.hpp"
#include "sim/core.hpp"
#include "sim/dvfs.hpp"
#include "sim/memhier.hpp"

namespace mimoarch {

/** Processor-level configuration. */
struct ProcessorConfig
{
    CoreConfig core{};
    MemoryHierarchyConfig mem{};
    EnergyModelParams energy{};
    double epochSeconds = 50e-6;  //!< Controller epoch (Table III).
    uint64_t sampleCycles = 2000; //!< Detailed cycles simulated per epoch.
    double dvfsTransitionUs = 5.0;
    double cacheGateFixedUs = 1.0; //!< Fixed cost of a way-gating action.
};

/** Sensor readout for one epoch — what the controller observes. */
struct EpochOutputs
{
    double ips = 0.0;       //!< Billions of committed instructions / s.
    double powerWatts = 0.0;
    double energyJoules = 0.0;
    double ipc = 0.0;
    double committedInstructions = 0.0; //!< Extrapolated to the epoch.
    double utilization = 0.0; //!< Committed / (width * cycles).
    double l2Mpki = 0.0;      //!< L2 misses per kilo-instruction.
    double stallFraction = 0.0; //!< Actuation stall share of the epoch.
    CoreCounters sample;      //!< Raw counters of the detailed sample.
};

/** The controlled system: three knobs in, (IPS, power) out. */
class Processor
{
  public:
    Processor(const ProcessorConfig &config, InstructionSource *source);

    // ---- Knobs (the controller's system inputs) ----

    /** DVFS level 0..15 (0.5 + 0.1*level GHz). */
    void setFrequencyLevel(unsigned level);

    /** Cache size setting 0..3 (0 smallest, 3 = full (8,4) ways). */
    void setCacheSizeSetting(unsigned setting);

    /** Active ROB entries (16..128, multiples of 16). */
    void setRobSize(unsigned entries);

    /**
     * Chip-level L2 way partition (bit w = L2 way w); the cache-size
     * knob gates within it. Charged like a way-gating action: flushed
     * dirty lines cost stall time and writeback energy.
     */
    void setL2PartitionMask(uint32_t way_mask);

    uint32_t l2PartitionMask() const { return mem_.l2PartitionMask(); }

    unsigned frequencyLevel() const { return dvfs_.level(); }
    unsigned cacheSizeSetting() const { return mem_.cacheSizeSetting(); }
    double effectiveCacheKb() const { return mem_.effectiveCacheKb(); }
    unsigned robSize() const { return core_.robSize(); }

    // ---- Simulation ----

    /** Simulate one epoch and return the sensor readout. */
    EpochOutputs runEpoch();

    /** Total simulated time across epochs, in seconds. */
    double elapsedSeconds() const { return elapsedSeconds_; }

    /** Total energy across epochs, in joules. */
    double totalEnergyJoules() const { return totalEnergy_; }

    /** Total committed instructions (extrapolated), in billions. */
    double totalInstructionsB() const { return totalInstrB_; }

    const Core &core() const { return core_; }
    const MemoryHierarchy &memory() const { return mem_; }

  private:
    ProcessorConfig config_;
    MemoryHierarchy mem_;
    Core core_;
    DvfsController dvfs_;
    PowerCalculator power_;

    double pendingStallUs_ = 0.0;
    double pendingExtraNj_ = 0.0;
    CoreCounters lastCounters_{};
    uint64_t lastL1dWb_ = 0;
    uint64_t lastL2Wb_ = 0;

    double elapsedSeconds_ = 0.0;
    double totalEnergy_ = 0.0;
    double totalInstrB_ = 0.0;
};

} // namespace mimoarch
