/**
 * @file
 * ChipInstance (DESIGN.md §14): N per-core MIMO control loops sharing
 * one L2 and one power envelope, coordinated by a BudgetArbiter.
 *
 * Each core is a complete single-core stack — its own Plant and
 * ArchController driven by its own EpochDriver — and the chip steps
 * the cores through EpochDriver's stepwise API. A core therefore
 * executes the *identical* statement chain it would execute
 * standalone; with one core and the arbiter disabled, digest(trace)
 * is bit-identical to a plain EpochDriver::run() (the equivalence the
 * chip test tier pins).
 *
 * Cores share no mutable state outside arbitration rounds, so run()
 * can step them on parallel threads between rounds: the round is the
 * only barrier, and the result is bit-identical at any thread count.
 *
 * Every arbiterPeriodEpochs epochs the arbiter re-partitions the L2
 * ways (strict way partitioning: each core's plant is confined to a
 * disjoint way mask of the shared geometry, so per-core cache state
 * stays independent and deterministic) and re-targets each core's
 * (IPS₀, P₀) within the chip envelope. Cores the supervisor has
 * SafePinned are never re-targeted; their measured draw is reserved
 * and the surplus redistributed deterministically.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chip/arbiter.hpp"
#include "core/experiment_config.hpp"
#include "core/harness.hpp"

namespace mimoarch::chip {

/** Upper bound on cores per chip (fixes event-record layout). */
constexpr size_t kMaxChipCores = 8;

/** One core's stack: the app label, its plant, its controller. */
struct ChipCore
{
    std::string app;
    std::unique_ptr<Plant> plant;
    std::unique_ptr<ArchController> controller;
};

/** One arbitration round as applied to the chip. */
struct ArbiterEvent
{
    size_t epoch = 0;
    size_t nCores = 0;
    std::array<CoreAllocation, kMaxChipCores> alloc{};
};

/** Aggregate results of one chip run. */
struct ChipRunSummary
{
    std::vector<RunSummary> cores;

    // Chip-wide accounting: index-order sums of the per-core runs.
    double chipEnergyJ = 0.0;
    double chipTimeS = 0.0; //!< Max over cores (lock-step wall time).
    double chipInstrB = 0.0;

    uint64_t arbiterRounds = 0;
    uint64_t retargets = 0; //!< setReference calls that changed a ref.
    uint64_t wayMoves = 0;  //!< Partition changes applied to a plant.

    /** Chip-wide E x D^(k-1) per unit work. */
    double
    exdMetric(unsigned k) const
    {
        if (chipInstrB <= 0.0)
            return 0.0;
        double m = chipEnergyJ / chipInstrB;
        for (unsigned i = 1; i < k; ++i)
            m *= chipTimeS / chipInstrB;
        return m;
    }
};

/** Bit-exact digest over every field (chip determinism tests). */
uint64_t digest(const ChipRunSummary &summary);

/** N cores + shared-budget arbiter, stepped serially or in parallel. */
class ChipInstance
{
  public:
    /**
     * @param cores one stack per core (owned; size must equal
     *        chip.nCores and fit kMaxChipCores).
     * @param chip topology + arbiter parameters. powerEnvelopeW is
     *        used as given; resolve "default envelope" upstream.
     * @param driver per-core driver config (shared by all cores).
     */
    ChipInstance(std::vector<ChipCore> cores, const ChipConfig &chip,
                 const DriverConfig &driver);

    /**
     * Run driver.epochs epochs from @p initial settings.
     *
     * At @p threads <= 1 everything runs on the caller: each core's
     * begin() in core order, then lock-step epochs in core order.
     * Above 1, each core is one parallelFor task per phase: its
     * begin(), then each stretch of epochs between two arbitration
     * rounds; arbitrate() runs on the caller between stretches. A
     * core that throws ends only its own stretch; once every core has
     * joined, the lowest-index core's exception is rethrown. The
     * result is bit-identical at any @p threads.
     */
    ChipRunSummary run(const KnobSettings &initial, unsigned threads = 1);

    /** Core @p i's per-epoch trace. */
    const EpochTrace &coreTrace(size_t i) const;

    /** Applied arbitration rounds, in epoch order. */
    const std::vector<ArbiterEvent> &arbiterEvents() const
    {
        return events_;
    }

  private:
    void arbitrate(size_t epoch);

    std::vector<ChipCore> cores_;
    ChipConfig chip_;
    DriverConfig driver_;
    BudgetArbiter arbiter_;
    std::vector<std::unique_ptr<EpochDriver>> drivers_;
    std::vector<uint32_t> currentMask_;  //!< Applied partition per core.
    std::vector<double> nominalRefIps_;  //!< Captured at run() start —
    std::vector<double> nominalRefPower_; //!< re-targets scale these.
    std::vector<ArbiterEvent> events_;
    uint64_t retargets_ = 0;
    uint64_t wayMoves_ = 0;
};

} // namespace mimoarch::chip
