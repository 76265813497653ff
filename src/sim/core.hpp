/**
 * @file
 * Out-of-order core model.
 *
 * The pipeline is a window-dataflow model in the ESESC tradition: fetch
 * (with I-cache and branch predictor), a fetch-to-dispatch delay, rename/
 * dispatch into the ROB and load/store queues, wakeup/select issue
 * limited by functional-unit ports and the issue width, and in-order
 * commit. Dependencies are expressed as producer distances in the dynamic
 * stream, so any InstructionSource can drive the core.
 *
 * Issue is event-driven. At dispatch an op links itself onto the
 * consumer list of each unissued producer; the producer's issue wakes
 * it, and once its operands are ready it sits in a per-port-group ready
 * bitmap over ROB slots. Select marks each group's oldest ready ops,
 * up to the group's port count, in a bitmap ordered by age and issues
 * the oldest issueWidth of those in age order, which is exactly what
 * an oldest-first walk of the window picks, so no cycle re-walks the
 * waiting ops.
 *
 * Configurable knobs (the paper's inputs): ROB size (power-gated in
 * 16-entry partitions per Ponomarev et al. [37]) and, via the memory
 * hierarchy it is attached to, cache associativity; frequency lives in
 * the Processor wrapper.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/bpred.hpp"
#include "sim/instruction.hpp"
#include "sim/memhier.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/stats.hpp"

namespace mimoarch {

/** Static core parameters (Table III: 3-issue out of order). */
struct CoreConfig
{
    unsigned fetchWidth = 3;
    unsigned issueWidth = 3;
    unsigned commitWidth = 3;
    unsigned robSizeMax = 128;
    unsigned loadQueueSize = 32;
    unsigned storeQueueSize = 16;
    unsigned frontendDepth = 4;          //!< Fetch-to-dispatch cycles.
    unsigned mispredictRedirectCycles = 5;

    // Functional unit ports.
    unsigned aluPorts = 2;
    unsigned mulDivPorts = 1;
    unsigned fpPorts = 2;
    unsigned loadPorts = 1;
    unsigned storePorts = 1;

    // Execute latencies (cycles).
    unsigned intMulLatency = 4;
    unsigned intDivLatency = 12;
    unsigned fpAluLatency = 4;
    unsigned fpMulLatency = 5;
    unsigned fpDivLatency = 15;

    BranchPredictorConfig bpred{};
};

/** The out-of-order core. */
class Core
{
  public:
    /**
     * @param config static parameters; every execute latency and the
     *        hierarchy's L1 latency must be at least one cycle.
     * @param source dynamic micro-op stream (not owned).
     * @param mem memory hierarchy (not owned, shared with Processor).
     */
    Core(const CoreConfig &config, InstructionSource *source,
         MemoryHierarchy *mem);

    /** Advance one cycle at the given core frequency. */
    void cycle(double freq_ghz);

    /** Advance @p n cycles. */
    void run(uint64_t n, double freq_ghz);

    /**
     * Request a new active ROB size (16..robSizeMax). The resize takes
     * effect once the ROB drains (dispatch pauses), modelling partition
     * power gating.
     */
    void setRobSize(unsigned entries);

    unsigned robSize() const { return robSizeTarget_; }
    unsigned robOccupancy() const { return robCount_; }

    const CoreCounters &counters() const { return counters_; }

    /** Zero the activity counters (e.g. after a warmup run). */
    void resetCounters() { counters_ = CoreCounters{}; }

  private:
    /** Ops of one group compete for the same functional-unit ports. */
    enum PortGroup : uint8_t {
        kAluGroup,
        kMulDivGroup,
        kFpGroup,
        kLoadGroup,
        kStoreGroup,
        kNumPortGroups,
    };

    static constexpr uint64_t kNotIssued = UINT64_MAX;
    static constexpr uint32_t kNoLink = UINT32_MAX;

    /**
     * One ROB slot; the op with sequence number s lives in slot
     * s & robMask_. A consumer link names a (slot, source operand) pair
     * as slot * 2 + operand, so an op sits on one producer's consumer
     * list per source (twice on one list when both sources name it).
     */
    struct RobEntry
    {
        uint64_t addr = 0;                //!< Loads and stores.
        uint64_t readyCycle = kNotIssued; //!< Result-available cycle.
        uint64_t operandsReadyCycle = 0;  //!< Latest issued producer's.
        uint32_t firstConsumer = kNoLink;
        uint32_t nextConsumer[2] = {kNoLink, kNoLink};
        uint32_t nextWake = kNoLink;      //!< Wake-wheel bucket link.
        OpClass cls = OpClass::IntAlu;
        uint8_t group = kAluGroup;        //!< PortGroup of cls.
        uint8_t pendingProducers = 0;     //!< Unissued producers.
        bool mispredicted = false;
    };

    /** What dispatch reads of a fetched op. */
    struct FetchedOp
    {
        uint64_t addr;
        uint64_t readyAtCycle; //!< When it may dispatch.
        uint16_t srcDist0;
        uint16_t srcDist1;
        OpClass cls;
        bool mispredicted;
    };

    void fetchStage();
    void dispatchStage();
    void issueStage(double freq_ghz);
    void commitStage();

    void linkProducer(RobEntry &consumer, uint32_t slot, unsigned operand,
                      uint16_t dist, uint64_t seq);
    void wake(uint32_t slot, uint64_t operands_ready);
    void setReady(uint32_t slot);
    uint64_t readyByAge(unsigned group, uint32_t head_slot,
                        size_t age_word) const;
    void issue(uint32_t slot, uint64_t seq, double freq_ghz);
    static PortGroup portGroup(OpClass cls);
    unsigned execLatency(OpClass cls) const;

    CoreConfig config_;
    InstructionSource *source_;
    MemoryHierarchy *mem_;
    BranchPredictor bpred_;

    uint64_t now_ = 0;
    uint64_t nextSeq_ = 1;

    RingBuffer<FetchedOp> fetchQueue_;

    /** ROB slots, a power-of-two count >= max(robSizeMax, 64). */
    std::vector<RobEntry> rob_;
    uint32_t robMask_ = 0;
    uint64_t robHeadSeq_ = 1; //!< Oldest op in the ROB (when non-empty).
    unsigned robCount_ = 0;   //!< The ROB holds [robHeadSeq_, +robCount_).

    /**
     * Ops whose producers all issued but whose operands are not ready
     * by the next cycle, bucketed by ready cycle mod kWakeWheelSize
     * (slot lists linked through RobEntry::nextWake).
     */
    static constexpr uint64_t kWakeWheelSize = 512;
    std::vector<uint32_t> wakeWheel_;

    /**
     * Ready-to-issue ops: per port group, one bit per ROB slot
     * (group g owns words [g * readyWords_, (g + 1) * readyWords_)).
     */
    std::vector<uint64_t> readyBits_;
    size_t readyWords_ = 0;
    unsigned readyCount_[kNumPortGroups] = {};
    /** Per group, min(ports, issueWidth): the most one cycle issues. */
    unsigned selectCap_[kNumPortGroups] = {};

    /**
     * Select scratch: the ops this cycle issues, one bit per age (ROB
     * position from the head).
     */
    std::vector<uint64_t> ageBits_;

    /** portGroup and execLatency by OpClass (loads' latency is 0). */
    uint8_t classGroup_[kNumOpClasses] = {};
    unsigned classLatency_[kNumOpClasses] = {};

    unsigned loadsInFlight_ = 0;
    unsigned storesInFlight_ = 0;

    unsigned robSizeActive_;
    unsigned robSizeTarget_;

    uint64_t fetchBlockedUntil_ = 0;       //!< I-miss / redirect stall.
    uint64_t pendingBranchSeq_ = 0;        //!< Mispredict fetch barrier.
    double curFreqGhz_ = 1.0;

    CoreCounters counters_;
};

} // namespace mimoarch
