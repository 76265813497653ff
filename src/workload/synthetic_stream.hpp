/**
 * @file
 * Synthetic dynamic micro-op stream generator implementing the core's
 * InstructionSource interface from an AppSpec.
 */

#pragma once

#include <array>

#include "common/random.hpp"
#include "sim/instruction.hpp"
#include "workload/appspec.hpp"

namespace mimoarch {

/**
 * Generates an infinite micro-op stream from an AppSpec. The stream is
 * deterministic given (spec.seed, seed_salt). Phases advance on epoch
 * boundaries via nextEpoch(), driven by the harness.
 */
class SyntheticStream : public InstructionSource
{
  public:
    explicit SyntheticStream(const AppSpec &spec, uint64_t seed_salt = 0);

    MicroOp next() override;

    /** Advance the phase clock by one controller epoch. */
    void nextEpoch();

    /** nextEpoch() calls until the one that enters the next phase. */
    uint64_t
    epochsLeftInPhase() const
    {
        const uint64_t length = spec_.phases[phaseIdx_].lengthEpochs;
        return epochInPhase_ < length ? length - epochInPhase_ : 1;
    }

    /** Index into spec().phases of the current phase. */
    size_t currentPhase() const { return phaseIdx_; }

    /** Epochs elapsed. */
    uint64_t epoch() const { return epoch_; }

    const AppSpec &spec() const { return spec_; }

    /** A static branch of the current phase. */
    struct BranchSite
    {
        uint64_t pc;
        uint64_t takenThreshold; //!< Rng::threshold of P(taken).
    };

    /**
     * What next() draws against in the current phase, derived once on
     * entering it so that no op recomputes it: each probability as its
     * Rng::threshold, the class cuts and the region sizes.
     */
    struct PhaseDraws
    {
        std::array<BranchSite, 64> branchSites{};
        /**
         * A class draw whose top 53 bits are m picks the class at
         * position (number of cuts <= m) of the mix's subtract chain:
         * Load, Store, Branch, IntMul, IntDiv, FpAlu, FpMul, FpDiv,
         * then IntAlu.
         */
        std::array<uint64_t, kNumOpClasses - 1> classCuts{};
        uint64_t depStop0 = 0;     //!< First source's geometric stop.
        uint64_t depStop1 = 0;     //!< Second source's, half as likely.
        uint64_t streamAccess = 0; //!< Streaming vs hot-set access.
        uint64_t codeBytes = 0;    //!< Wrap of the sequential code walk.
        uint64_t streamBytes = 0;  //!< Wrap of the streaming walk.
        uint64_t hotLines = 0;     //!< 64B lines in the hot set.
    };

    const PhaseDraws &phaseDraws() const { return draws_; }

    /**
     * Where the op sequence stands within a phase. next() reads the
     * phase's draws and reads and advances only these three, so after
     * seek(c) to a cursor taken earlier in the same phase, next()
     * repeats the ops that followed it.
     */
    struct Cursor
    {
        Rng rng;
        uint64_t codePtr = 0;
        uint64_t streamPtr = 0;
    };

    Cursor cursor() const { return {rng_, codePtr_, streamPtr_}; }

    void
    seek(const Cursor &c)
    {
        rng_ = c.rng;
        codePtr_ = c.codePtr;
        streamPtr_ = c.streamPtr;
    }

  private:
    void enterPhase(size_t idx);
    uint16_t depDistance(uint64_t stop_threshold);

    AppSpec spec_;
    Rng rng_;
    size_t phaseIdx_ = 0;
    uint64_t epoch_ = 0;
    uint64_t epochInPhase_ = 0;
    PhaseDraws draws_;
    uint64_t streamPtr_ = 0;
    uint64_t codePtr_ = 0;

    // Address-space bases keep regions disjoint.
    static constexpr uint64_t kHotBase = 0x1000'0000;
    static constexpr uint64_t kStreamBase = 0x4000'0000;
    static constexpr uint64_t kCodeBase = 0x0040'0000;
};

} // namespace mimoarch
