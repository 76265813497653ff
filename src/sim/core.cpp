#include "sim/core.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"

namespace mimoarch {

Core::Core(const CoreConfig &config, InstructionSource *source,
           MemoryHierarchy *mem)
    : config_(config), source_(source), mem_(mem), bpred_(config.bpred),
      robSizeActive_(config.robSizeMax), robSizeTarget_(config.robSizeMax)
{
    if (!source_ || !mem_)
        fatal("Core needs an instruction source and a memory hierarchy");
    // Consumer links pack slot * 2 + operand into 32 bits.
    if (config_.robSizeMax == 0 || config_.robSizeMax > (1u << 30) ||
        config_.issueWidth == 0)
        fatal("Core config: ROB size ", config_.robSizeMax,
              " or issue width ", config_.issueWidth, " out of range");
    // Select picks a whole cycle's ops before any of them issues, which
    // is exact only if no result is ready in the cycle it is produced.
    if (config_.intMulLatency == 0 || config_.intDivLatency == 0 ||
        config_.fpAluLatency == 0 || config_.fpMulLatency == 0 ||
        config_.fpDivLatency == 0 || mem_->config().l1LatencyCycles == 0)
        fatal("Core config: execute and L1 latencies must be >= 1 cycle");

    // Whole bitmap words of slots: select reads a word of ages as two
    // circularly adjacent words of slots.
    const uint32_t slots =
        std::max(std::bit_ceil(config_.robSizeMax), uint32_t{64});
    rob_.assign(slots, RobEntry{});
    robMask_ = slots - 1;
    wakeWheel_.assign(kWakeWheelSize, kNoLink);
    readyWords_ = slots / 64;
    readyBits_.assign(kNumPortGroups * readyWords_, 0);
    ageBits_.assign(readyWords_, 0);
    const unsigned ports[kNumPortGroups] = {
        config_.aluPorts, config_.mulDivPorts, config_.fpPorts,
        config_.loadPorts, config_.storePorts};
    for (unsigned g = 0; g < kNumPortGroups; ++g)
        selectCap_[g] = std::min(ports[g], config_.issueWidth);
    for (size_t c = 0; c < kNumOpClasses; ++c) {
        const auto cls = static_cast<OpClass>(c);
        classGroup_[c] = portGroup(cls);
        classLatency_[c] = cls == OpClass::Load ? 0 : execLatency(cls);
    }
    // fetchStage checks the cap before a fetch group, then pushes up to
    // fetchWidth ops, so the queue can exceed the cap by one group.
    fetchQueue_.reset(size_t{2} * config_.fetchWidth * config_.frontendDepth +
                      config_.fetchWidth);
}

Core::PortGroup
Core::portGroup(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
        return kAluGroup;
      case OpClass::IntMul:
      case OpClass::IntDiv:
        return kMulDivGroup;
      case OpClass::FpAlu:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        return kFpGroup;
      case OpClass::Load:
        return kLoadGroup;
      case OpClass::Store:
        return kStoreGroup;
    }
    panic("unknown op class");
}

unsigned
Core::execLatency(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Store:
        return 1;
      case OpClass::IntMul:
        return config_.intMulLatency;
      case OpClass::IntDiv:
        return config_.intDivLatency;
      case OpClass::FpAlu:
        return config_.fpAluLatency;
      case OpClass::FpMul:
        return config_.fpMulLatency;
      case OpClass::FpDiv:
        return config_.fpDivLatency;
      case OpClass::Load:
        panic("load latency comes from the memory hierarchy");
    }
    panic("unknown op class");
}

void
Core::setRobSize(unsigned entries)
{
    if (entries < 16 || entries > config_.robSizeMax)
        fatal("ROB size ", entries, " outside [16, ", config_.robSizeMax,
              "]");
    robSizeTarget_ = entries;
    if (robSizeTarget_ >= robSizeActive_) {
        // Power partitions back on: effective immediately.
        robSizeActive_ = robSizeTarget_;
    }
    // Shrinking takes effect in dispatchStage once occupancy allows.
}

void
Core::commitStage()
{
    unsigned committed = 0;
    while (robCount_ > 0 && committed < config_.commitWidth) {
        const RobEntry &head =
            rob_[static_cast<uint32_t>(robHeadSeq_) & robMask_];
        if (head.readyCycle > now_)
            break; // not issued, or its result is not ready yet
        // An op's class is random data to the branch predictor, so the
        // queue counts update without branching on it (here and at
        // dispatch).
        loadsInFlight_ -=
            (head.cls == OpClass::Load) & (loadsInFlight_ > 0);
        storesInFlight_ -=
            (head.cls == OpClass::Store) & (storesInFlight_ > 0);
        ++robHeadSeq_;
        --robCount_;
        ++counters_.committed;
        ++committed;
    }
}

void
Core::setReady(uint32_t slot)
{
    const unsigned g = rob_[slot].group;
    readyBits_[g * readyWords_ + (slot >> 6)] |= uint64_t{1} << (slot & 63);
    ++readyCount_[g];
}

void
Core::wake(uint32_t slot, uint64_t operands_ready)
{
    // Dispatch and issue-time wakeups both run after this cycle's
    // select, so an op ready by the next cycle joins the bitmaps now.
    if (operands_ready <= now_ + 1) {
        setReady(slot);
        return;
    }
    uint32_t &bucket = wakeWheel_[operands_ready % kWakeWheelSize];
    rob_[slot].nextWake = bucket;
    bucket = slot;
}

uint64_t
Core::readyByAge(unsigned group, uint32_t head_slot, size_t age_word) const
{
    // Ages 64k..64k+63 are the slots from head_slot + 64k on, which
    // straddle two circularly adjacent words.
    const uint64_t *bits = &readyBits_[group * readyWords_];
    const size_t w = (head_slot >> 6) + age_word;
    const uint64_t lo = bits[w & (readyWords_ - 1)];
    const uint64_t hi = bits[(w + 1) & (readyWords_ - 1)];
    const unsigned shift = head_slot & 63;
    return shift == 0 ? lo : (lo >> shift) | (hi << (64 - shift));
}

void
Core::issueStage(double freq_ghz)
{
    // Wakeup: ops whose operands are ready now become selectable. The
    // bucket also holds ops due a whole number of wheel turns later.
    for (uint32_t *link = &wakeWheel_[now_ % kWakeWheelSize];
         *link != kNoLink;) {
        const uint32_t slot = *link;
        RobEntry &e = rob_[slot];
        if (e.operandsReadyCycle <= now_) {
            *link = e.nextWake;
            setReady(slot);
        } else {
            link = &e.nextWake;
        }
    }

    // Select: mark each group's oldest min(ports, issueWidth) ready ops
    // by age, keeping the oldest issueWidth marks, then issue those. That
    // is what an oldest-first walk of the waiting ops takes when it
    // takes each ready op whose group has a free port and stops at
    // issueWidth, because no op issued this cycle makes another ready
    // this cycle (every latency is >= 1). Marking ends before the first
    // issue, whose wakeups change the bitmaps; issuing in age order lets
    // memory accesses, counters and the mispredict redirect see the
    // oldest-first sequence.
    unsigned need[kNumPortGroups];
    bool any = false;
    for (unsigned g = 0; g < kNumPortGroups; ++g) {
        need[g] = std::min(selectCap_[g], readyCount_[g]);
        any |= need[g] != 0;
    }
    if (!any)
        return;
    const uint32_t head_slot =
        static_cast<uint32_t>(robHeadSeq_) & robMask_;
    unsigned left = config_.issueWidth;
    size_t words = 0;
    while (any && left != 0 && words < readyWords_) {
        uint64_t marks = 0;
        any = false;
        for (unsigned g = 0; g < kNumPortGroups; ++g) {
            if (need[g] == 0)
                continue;
            for (uint64_t ready = readyByAge(g, head_slot, words);
                 ready != 0 && need[g] != 0; ready &= ready - 1, --need[g])
                marks |= ready & -ready;
            any |= need[g] != 0;
        }
        uint64_t oldest = 0;
        for (; marks != 0 && left != 0; marks &= marks - 1, --left)
            oldest |= marks & -marks;
        ageBits_[words++] = oldest;
    }
    for (size_t w = 0; w < words; ++w) {
        for (uint64_t word = ageBits_[w]; word != 0; word &= word - 1) {
            const uint32_t age =
                static_cast<uint32_t>(w * 64) + std::countr_zero(word);
            issue((head_slot + age) & robMask_, robHeadSeq_ + age, freq_ghz);
        }
    }
}

void
Core::issue(uint32_t slot, uint64_t seq, double freq_ghz)
{
    RobEntry &e = rob_[slot];
    readyBits_[e.group * readyWords_ + (slot >> 6)] &=
        ~(uint64_t{1} << (slot & 63));
    --readyCount_[e.group];

    ++counters_.issued;
    ++counters_.issuedByClass[static_cast<size_t>(e.cls)];
    if (e.cls == OpClass::Load || e.cls == OpClass::Store) {
        const bool is_store = e.cls == OpClass::Store;
        const MemAccessResult r = mem_->accessData(e.addr, is_store,
                                                   freq_ghz);
        ++counters_.l1dAccesses;
        if (!r.l1Hit) {
            ++counters_.l1dMisses;
            ++counters_.l2Accesses;
            if (!r.l2Hit) {
                ++counters_.l2Misses;
                ++counters_.memAccesses;
            }
        }
        // The store buffer hides the write latency from the pipeline.
        e.readyCycle = now_ + (is_store ? 1 : r.latencyCycles);
    } else {
        e.readyCycle = now_ + classLatency_[static_cast<size_t>(e.cls)];
    }

    // A mispredicted branch redirects fetch when it resolves.
    if (e.mispredicted) {
        fetchBlockedUntil_ =
            std::max(fetchBlockedUntil_,
                     e.readyCycle + config_.mispredictRedirectCycles);
        if (pendingBranchSeq_ == seq)
            pendingBranchSeq_ = 0;
    }

    // Wake the consumers; the last producer to issue schedules one.
    for (uint32_t link = e.firstConsumer; link != kNoLink;) {
        const uint32_t consumer_slot = link >> 1;
        RobEntry &c = rob_[consumer_slot];
        link = c.nextConsumer[link & 1];
        c.operandsReadyCycle = std::max(c.operandsReadyCycle, e.readyCycle);
        if (--c.pendingProducers == 0)
            wake(consumer_slot, c.operandsReadyCycle);
    }
}

void
Core::linkProducer(RobEntry &consumer, uint32_t slot, unsigned operand,
                   uint16_t dist, uint64_t seq)
{
    if (dist == 0 || dist >= seq)
        return; // no producer in the stream
    const uint64_t producer_seq = seq - dist;
    if (producer_seq < robHeadSeq_)
        return; // committed, so its result is available
    RobEntry &p = rob_[static_cast<uint32_t>(producer_seq) & robMask_];
    if (p.readyCycle != kNotIssued) {
        consumer.operandsReadyCycle =
            std::max(consumer.operandsReadyCycle, p.readyCycle);
        return;
    }
    consumer.nextConsumer[operand] = p.firstConsumer;
    p.firstConsumer = slot * 2 + operand;
    ++consumer.pendingProducers;
}

void
Core::dispatchStage()
{
    // Complete a pending ROB shrink once occupancy allows.
    if (robSizeTarget_ < robSizeActive_ && robCount_ <= robSizeTarget_)
        robSizeActive_ = robSizeTarget_;

    unsigned dispatched = 0;
    bool rob_full = false, lsq_full = false;
    while (dispatched < config_.issueWidth && !fetchQueue_.empty()) {
        FetchedOp &f = fetchQueue_.front();
        if (f.readyAtCycle > now_)
            break;
        if (robCount_ >= robSizeActive_) {
            rob_full = true;
            break;
        }
        const bool is_load = f.cls == OpClass::Load;
        const bool is_store = f.cls == OpClass::Store;
        if ((is_load & (loadsInFlight_ >= config_.loadQueueSize)) |
            (is_store & (storesInFlight_ >= config_.storeQueueSize))) {
            lsq_full = true;
            break;
        }

        // Every fetched op dispatches, in order, so this op's sequence
        // number is the one after the ROB's youngest, and every
        // in-window producer is already in the ROB.
        const uint64_t seq = robHeadSeq_ + robCount_;
        const uint32_t slot = static_cast<uint32_t>(seq) & robMask_;
        RobEntry &e = rob_[slot];
        e = RobEntry{};
        e.addr = f.addr;
        e.cls = f.cls;
        e.group = classGroup_[static_cast<size_t>(f.cls)];
        e.mispredicted = f.mispredicted;
        linkProducer(e, slot, 0, f.srcDist0, seq);
        linkProducer(e, slot, 1, f.srcDist1, seq);
        if (e.pendingProducers == 0)
            wake(slot, e.operandsReadyCycle);
        loadsInFlight_ += is_load;
        storesInFlight_ += is_store;
        ++robCount_;
        fetchQueue_.pop_front();
        ++dispatched;
        ++counters_.dispatched;
    }
    if (rob_full)
        ++counters_.robFullStallCycles;
    if (lsq_full)
        ++counters_.lsqFullStallCycles;
}

void
Core::fetchStage()
{
    const size_t fetch_queue_cap =
        size_t{2} * config_.fetchWidth * config_.frontendDepth;
    if (now_ < fetchBlockedUntil_ || pendingBranchSeq_ != 0 ||
        fetchQueue_.size() >= fetch_queue_cap) {
        ++counters_.fetchStallCycles;
        return;
    }

    bool accessed_icache = false;
    for (unsigned i = 0; i < config_.fetchWidth; ++i) {
        MicroOp op = source_->next();
        if (!accessed_icache) {
            const MemAccessResult r = mem_->accessInstr(op.pc, curFreqGhz_);
            ++counters_.l1iAccesses;
            if (!r.l1Hit) {
                ++counters_.l1iMisses;
                ++counters_.l2Accesses;
                if (!r.l2Hit) {
                    ++counters_.l2Misses;
                    ++counters_.memAccesses;
                }
                // The miss delays subsequent fetch groups; the next-line
                // prefetcher hides the sequential follow-on misses.
                fetchBlockedUntil_ = now_ + r.latencyCycles;
                mem_->prefetchInstrLine(op.pc + 64);
                mem_->prefetchInstrLine(op.pc + 128);
            }
            accessed_icache = true;
        }

        const uint64_t seq = nextSeq_++;
        bool mispredicted = false;
        if (op.cls == OpClass::Branch) {
            ++counters_.branchLookups;
            const bool correct = bpred_.predictAndUpdate(op.pc, op.taken);
            if (!correct) {
                ++counters_.branchMispredicts;
                mispredicted = true;
                pendingBranchSeq_ = seq;
            }
        }
        ++counters_.fetched;
        fetchQueue_.push_back({op.addr, now_ + config_.frontendDepth,
                               op.srcDist0, op.srcDist1, op.cls,
                               mispredicted});
        if (mispredicted)
            break; // stop fetching past the mispredicted branch
    }
}

void
Core::cycle(double freq_ghz)
{
    curFreqGhz_ = freq_ghz;
    commitStage();
    issueStage(freq_ghz);
    dispatchStage();
    fetchStage();
    counters_.robOccupancySum += robCount_;
    ++counters_.cycles;
    ++now_;
}

void
Core::run(uint64_t n, double freq_ghz)
{
    for (uint64_t i = 0; i < n; ++i)
        cycle(freq_ghz);
}

} // namespace mimoarch
