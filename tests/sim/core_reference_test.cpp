/**
 * @file
 * Differential test for the core's wakeup/select issue stage: a naive
 * reference core that keeps the oldest-first window scan (walk every
 * waiting ROB entry each cycle, take it if its port group has a free
 * port and its producers are done, stop at the issue width) steps in
 * lock-step with Core over seeded random streams. After every cycle,
 * every CoreCounters field, the ROB occupancy and the L1D/L2 statistics
 * must agree, across op classes, dependency distances, widths, port
 * counts, ROB sizes and resizes, frequency changes, mispredicts and
 * small caches that miss.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <random>
#include <tuple>
#include <vector>

#include "common/logging.hpp"
#include "sim/core.hpp"
#include "sim/ring_buffer.hpp"

namespace mimoarch {
namespace {

/** The window-scan core, kept as the reference for Core. */
class NaiveCore
{
  public:
    NaiveCore(const CoreConfig &config, InstructionSource *source,
              MemoryHierarchy *mem)
        : config_(config), source_(source), mem_(mem), bpred_(config.bpred),
          robSizeActive_(config.robSizeMax),
          robSizeTarget_(config.robSizeMax)
    {
        fetchQueue_.reset(size_t{2} * config_.fetchWidth *
                              config_.frontendDepth +
                          config_.fetchWidth);
    }

    void
    cycle(double freq_ghz)
    {
        curFreqGhz_ = freq_ghz;
        commitStage();
        issueStage(freq_ghz);
        dispatchStage();
        fetchStage();
        counters_.robOccupancySum += rob_.size();
        ++counters_.cycles;
        ++now_;
    }

    void
    run(uint64_t n, double freq_ghz)
    {
        for (uint64_t i = 0; i < n; ++i)
            cycle(freq_ghz);
    }

    void
    setRobSize(unsigned entries)
    {
        robSizeTarget_ = entries;
        if (robSizeTarget_ >= robSizeActive_)
            robSizeActive_ = robSizeTarget_;
    }

    unsigned robOccupancy() const { return static_cast<unsigned>(rob_.size()); }
    const CoreCounters &counters() const { return counters_; }

  private:
    struct RobEntry
    {
        MicroOp op;
        uint64_t seq = 0;
        uint64_t readyCycle = UINT64_MAX;
        uint64_t producerSeq0 = 0;
        uint64_t producerSeq1 = 0;
        bool issued = false;
        bool mispredicted = false;
    };

    struct FetchedOp
    {
        MicroOp op;
        uint64_t seq;
        uint64_t readyAtCycle;
        bool mispredicted;
    };

    unsigned
    execLatency(OpClass cls) const
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
            break;
        }
        panic("no fixed latency");
    }

    bool
    producerDone(uint64_t producer_seq) const
    {
        if (producer_seq == 0 || producer_seq < robHeadSeq_)
            return true;
        const size_t idx = producer_seq - robHeadSeq_;
        if (idx >= rob_.size())
            return true;
        const RobEntry &e = rob_[idx];
        return e.issued && e.readyCycle <= now_;
    }

    void
    commitStage()
    {
        unsigned committed = 0;
        while (!rob_.empty() && committed < config_.commitWidth) {
            RobEntry &head = rob_.front();
            if (!head.issued || head.readyCycle > now_)
                break;
            if (head.op.cls == OpClass::Load) {
                if (loadsInFlight_ > 0)
                    --loadsInFlight_;
            } else if (head.op.cls == OpClass::Store) {
                if (storesInFlight_ > 0)
                    --storesInFlight_;
            }
            rob_.pop_front();
            ++robHeadSeq_;
            if (issuedPrefix_ > 0)
                --issuedPrefix_;
            ++counters_.committed;
            ++committed;
        }
    }

    void
    countDataAccess(const MemAccessResult &r)
    {
        ++counters_.l1dAccesses;
        if (!r.l1Hit) {
            ++counters_.l1dMisses;
            ++counters_.l2Accesses;
            if (!r.l2Hit) {
                ++counters_.l2Misses;
                ++counters_.memAccesses;
            }
        }
    }

    void
    issueStage(double freq_ghz)
    {
        unsigned issued = 0;
        unsigned alu = 0, muldiv = 0, fp = 0, ld = 0, st = 0;
        while (issuedPrefix_ < rob_.size() && rob_[issuedPrefix_].issued)
            ++issuedPrefix_;
        const size_t rob_size = rob_.size();
        for (size_t idx = issuedPrefix_; idx < rob_size; ++idx) {
            RobEntry &e = rob_[idx];
            if (issued >= config_.issueWidth)
                break;
            if (e.issued)
                continue;
            bool port_free = false;
            switch (e.op.cls) {
              case OpClass::IntAlu:
              case OpClass::Branch:
                port_free = alu < config_.aluPorts;
                break;
              case OpClass::IntMul:
              case OpClass::IntDiv:
                port_free = muldiv < config_.mulDivPorts;
                break;
              case OpClass::FpAlu:
              case OpClass::FpMul:
              case OpClass::FpDiv:
                port_free = fp < config_.fpPorts;
                break;
              case OpClass::Load:
                port_free = ld < config_.loadPorts;
                break;
              case OpClass::Store:
                port_free = st < config_.storePorts;
                break;
            }
            if (!port_free)
                continue;
            if (!producerDone(e.producerSeq0) ||
                !producerDone(e.producerSeq1))
                continue;

            e.issued = true;
            ++issued;
            ++counters_.issued;
            ++counters_.issuedByClass[static_cast<size_t>(e.op.cls)];
            switch (e.op.cls) {
              case OpClass::IntAlu:
              case OpClass::Branch:
                ++alu;
                e.readyCycle = now_ + execLatency(e.op.cls);
                break;
              case OpClass::IntMul:
              case OpClass::IntDiv:
                ++muldiv;
                e.readyCycle = now_ + execLatency(e.op.cls);
                break;
              case OpClass::FpAlu:
              case OpClass::FpMul:
              case OpClass::FpDiv:
                ++fp;
                e.readyCycle = now_ + execLatency(e.op.cls);
                break;
              case OpClass::Load: {
                ++ld;
                const MemAccessResult r =
                    mem_->accessData(e.op.addr, false, freq_ghz);
                countDataAccess(r);
                e.readyCycle = now_ + r.latencyCycles;
                break;
              }
              case OpClass::Store: {
                ++st;
                const MemAccessResult r =
                    mem_->accessData(e.op.addr, true, freq_ghz);
                countDataAccess(r);
                e.readyCycle = now_ + 1;
                break;
              }
            }
            if (e.mispredicted) {
                fetchBlockedUntil_ = std::max(
                    fetchBlockedUntil_,
                    e.readyCycle + config_.mispredictRedirectCycles);
                if (pendingBranchSeq_ == e.seq)
                    pendingBranchSeq_ = 0;
            }
        }
    }

    void
    dispatchStage()
    {
        if (robSizeTarget_ < robSizeActive_ &&
            rob_.size() <= robSizeTarget_)
            robSizeActive_ = robSizeTarget_;

        unsigned dispatched = 0;
        bool rob_full = false, lsq_full = false;
        while (dispatched < config_.issueWidth && !fetchQueue_.empty()) {
            FetchedOp &f = fetchQueue_.front();
            if (f.readyAtCycle > now_)
                break;
            if (rob_.size() >= robSizeActive_) {
                rob_full = true;
                break;
            }
            if (f.op.cls == OpClass::Load &&
                loadsInFlight_ >= config_.loadQueueSize) {
                lsq_full = true;
                break;
            }
            if (f.op.cls == OpClass::Store &&
                storesInFlight_ >= config_.storeQueueSize) {
                lsq_full = true;
                break;
            }
            RobEntry e;
            e.op = f.op;
            e.seq = f.seq;
            e.mispredicted = f.mispredicted;
            if (f.op.srcDist0 != 0 && f.op.srcDist0 < f.seq)
                e.producerSeq0 = f.seq - f.op.srcDist0;
            if (f.op.srcDist1 != 0 && f.op.srcDist1 < f.seq)
                e.producerSeq1 = f.seq - f.op.srcDist1;
            if (f.op.cls == OpClass::Load)
                ++loadsInFlight_;
            else if (f.op.cls == OpClass::Store)
                ++storesInFlight_;
            rob_.push_back(e);
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
    fetchStage()
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
                const MemAccessResult r =
                    mem_->accessInstr(op.pc, curFreqGhz_);
                ++counters_.l1iAccesses;
                if (!r.l1Hit) {
                    ++counters_.l1iMisses;
                    ++counters_.l2Accesses;
                    if (!r.l2Hit) {
                        ++counters_.l2Misses;
                        ++counters_.memAccesses;
                    }
                    fetchBlockedUntil_ = now_ + r.latencyCycles;
                    mem_->prefetchInstrLine(op.pc + 64);
                    mem_->prefetchInstrLine(op.pc + 128);
                }
                accessed_icache = true;
            }
            FetchedOp f;
            f.op = op;
            f.seq = nextSeq_++;
            f.readyAtCycle = now_ + config_.frontendDepth;
            f.mispredicted = false;
            if (op.cls == OpClass::Branch) {
                ++counters_.branchLookups;
                if (!bpred_.predictAndUpdate(op.pc, op.taken)) {
                    ++counters_.branchMispredicts;
                    f.mispredicted = true;
                    pendingBranchSeq_ = f.seq;
                }
            }
            ++counters_.fetched;
            fetchQueue_.push_back(f);
            if (f.mispredicted)
                break;
        }
    }

    CoreConfig config_;
    InstructionSource *source_;
    MemoryHierarchy *mem_;
    BranchPredictor bpred_;
    uint64_t now_ = 0;
    uint64_t nextSeq_ = 1;
    RingBuffer<FetchedOp> fetchQueue_;
    std::deque<RobEntry> rob_; //!< Indexed oldest-first, like the scan.
    uint64_t robHeadSeq_ = 1;
    size_t issuedPrefix_ = 0;
    unsigned loadsInFlight_ = 0;
    unsigned storesInFlight_ = 0;
    unsigned robSizeActive_;
    unsigned robSizeTarget_;
    uint64_t fetchBlockedUntil_ = 0;
    uint64_t pendingBranchSeq_ = 0;
    double curFreqGhz_ = 1.0;
    CoreCounters counters_;
};

/** Shape of a random micro-op stream. */
struct StreamShape
{
    /** Relative weight of each OpClass (0 = never emitted). */
    std::vector<unsigned> classWeights =
        std::vector<unsigned>(kNumOpClasses, 1);
    uint16_t maxDist = 512;        //!< Longest dependency distance.
    uint64_t dataFootprint = 64 * 1024;
    uint64_t codeFootprint = 2 * 1024;
    unsigned randomBranchPct = 10; //!< Branches with a random outcome.
};

/**
 * Seeded random stream: every op class, dependency distances of 0, 1,
 * short, window-sized and far beyond the window (with equal sources a
 * third of the time), random branch outcomes and jumps so the
 * predictor mispredicts and the I-cache misses.
 */
class RandomStream : public InstructionSource
{
  public:
    RandomStream(uint64_t seed, const StreamShape &shape)
        : rng_(seed), shape_(shape),
          classPick_(shape.classWeights.begin(), shape.classWeights.end())
    {
    }

    MicroOp
    next() override
    {
        MicroOp op;
        op.cls = static_cast<OpClass>(classPick_(rng_));
        op.srcDist0 = dist();
        op.srcDist1 = rng_() % 3 == 0 ? op.srcDist0 : dist();
        if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
            // Half the accesses reuse a small hot set, half roam.
            op.addr = rng_() % 2 ? (rng_() % 2048)
                                 : rng_() % shape_.dataFootprint;
        }
        pc_ = (pc_ + 4) % shape_.codeFootprint;
        op.pc = 0x400000 + pc_;
        if (op.cls == OpClass::Branch) {
            // Mostly taken (learnable), sometimes a coin flip
            // (mispredicted), sometimes a jump (I-cache misses).
            op.taken = rng_() % 100 >= shape_.randomBranchPct ||
                rng_() % 2 == 0;
            if (op.taken && rng_() % 16 == 0)
                pc_ = (rng_() % shape_.codeFootprint) & ~uint64_t{3};
        }
        return op;
    }

  private:
    uint16_t
    dist()
    {
        const unsigned r = rng_() % 20;
        if (r < 6)
            return 0;
        if (r < 11)
            return 1;
        if (r < 16)
            return static_cast<uint16_t>(2 + rng_() % 8);
        return static_cast<uint16_t>(1 + rng_() % shape_.maxDist);
    }

    std::mt19937_64 rng_;
    StreamShape shape_;
    std::discrete_distribution<int> classPick_;
    uint64_t pc_ = 0;
};

/** Small caches over a larger footprint: hits, misses and writebacks. */
MemoryHierarchyConfig
smallCaches()
{
    MemoryHierarchyConfig cfg;
    cfg.l1i = CacheConfig{1024, 2, 64};
    cfg.l1d = CacheConfig{2048, 4, 64};
    cfg.l2 = CacheConfig{16 * 1024, 8, 64};
    return cfg;
}

::testing::AssertionResult
sameState(const Core &core, const NaiveCore &naive,
          const MemoryHierarchy &mem, const MemoryHierarchy &naive_mem)
{
    const CoreCounters &a = core.counters();
    const CoreCounters &b = naive.counters();
#define MIMOARCH_SAME(expr_a, expr_b, what)                                 \
    if ((expr_a) != (expr_b))                                               \
        return ::testing::AssertionFailure()                                \
            << what << ": core " << (expr_a) << " vs reference "            \
            << (expr_b) << " at cycle " << a.cycles;
    MIMOARCH_SAME(a.cycles, b.cycles, "cycles")
    MIMOARCH_SAME(a.committed, b.committed, "committed")
    MIMOARCH_SAME(a.fetched, b.fetched, "fetched")
    MIMOARCH_SAME(a.dispatched, b.dispatched, "dispatched")
    MIMOARCH_SAME(a.issued, b.issued, "issued")
    for (size_t c = 0; c < kNumOpClasses; ++c)
        MIMOARCH_SAME(a.issuedByClass[c], b.issuedByClass[c],
                      "issuedByClass[" << c << "]")
    MIMOARCH_SAME(a.branchLookups, b.branchLookups, "branchLookups")
    MIMOARCH_SAME(a.branchMispredicts, b.branchMispredicts,
                  "branchMispredicts")
    MIMOARCH_SAME(a.fetchStallCycles, b.fetchStallCycles,
                  "fetchStallCycles")
    MIMOARCH_SAME(a.robFullStallCycles, b.robFullStallCycles,
                  "robFullStallCycles")
    MIMOARCH_SAME(a.lsqFullStallCycles, b.lsqFullStallCycles,
                  "lsqFullStallCycles")
    MIMOARCH_SAME(a.robOccupancySum, b.robOccupancySum, "robOccupancySum")
    MIMOARCH_SAME(a.l1dAccesses, b.l1dAccesses, "l1dAccesses")
    MIMOARCH_SAME(a.l1dMisses, b.l1dMisses, "l1dMisses")
    MIMOARCH_SAME(a.l1iAccesses, b.l1iAccesses, "l1iAccesses")
    MIMOARCH_SAME(a.l1iMisses, b.l1iMisses, "l1iMisses")
    MIMOARCH_SAME(a.l2Accesses, b.l2Accesses, "l2Accesses")
    MIMOARCH_SAME(a.l2Misses, b.l2Misses, "l2Misses")
    MIMOARCH_SAME(a.memAccesses, b.memAccesses, "memAccesses")
    MIMOARCH_SAME(a.cacheWritebacks, b.cacheWritebacks, "cacheWritebacks")
    MIMOARCH_SAME(core.robOccupancy(), naive.robOccupancy(), "robOccupancy")
    for (const auto &[what, x, y] :
         {std::tuple{"l1d", &mem.l1d().stats(), &naive_mem.l1d().stats()},
          std::tuple{"l2", &mem.l2().stats(), &naive_mem.l2().stats()}}) {
        MIMOARCH_SAME(x->accesses, y->accesses, what << " accesses")
        MIMOARCH_SAME(x->misses, y->misses, what << " misses")
        MIMOARCH_SAME(x->writebacks, y->writebacks, what << " writebacks")
    }
#undef MIMOARCH_SAME
    return ::testing::AssertionSuccess();
}

/** Schedule of the knobs changed between run() calls. */
struct Schedule
{
    uint64_t cycles = 10000;
    bool resizeRob = true;
    bool changeFrequency = true;
    uint64_t minCommitted = 200;
};

/**
 * Step Core and NaiveCore in lock-step on two copies of the same
 * stream and hierarchy, comparing all state after every cycle. Every
 * few hundred cycles the ROB is resized and the frequency changes.
 */
void
expectLockStep(const CoreConfig &config, const MemoryHierarchyConfig &mcfg,
               uint64_t seed, const StreamShape &shape,
               const Schedule &schedule = {})
{
    RandomStream src(seed, shape), naive_src(seed, shape);
    MemoryHierarchy mem(mcfg), naive_mem(mcfg);
    Core core(config, &src, &mem);
    NaiveCore naive(config, &naive_src, &naive_mem);

    std::mt19937_64 knobs(seed ^ 0x9e3779b97f4a7c15ull);
    const double freqs[] = {0.6, 1.0, 1.3, 2.0, 3.2};
    double freq = 1.3;
    uint64_t done = 0;
    while (done < schedule.cycles) {
        if (schedule.changeFrequency)
            freq = freqs[knobs() % std::size(freqs)];
        if (schedule.resizeRob && knobs() % 2 == 0) {
            const unsigned entries = static_cast<unsigned>(
                16 + knobs() % (config.robSizeMax - 15));
            core.setRobSize(entries);
            naive.setRobSize(entries);
        }
        const uint64_t span =
            std::min<uint64_t>(50 + knobs() % 400, schedule.cycles - done);
        for (uint64_t i = 0; i < span; ++i) {
            core.run(1, freq);
            naive.run(1, freq);
            ASSERT_TRUE(sameState(core, naive, mem, naive_mem))
                << "seed " << seed << ", ROB max " << config.robSizeMax
                << ", issue width " << config.issueWidth;
        }
        done += span;
    }
    // The run must have exercised the pipeline, not idled.
    EXPECT_GE(core.counters().committed, schedule.minCommitted);
}

TEST(CoreReferenceTest, DefaultCoreMatchesWindowScan)
{
    for (uint64_t seed = 1; seed <= 3; ++seed)
        expectLockStep(CoreConfig{}, MemoryHierarchyConfig{}, seed,
                       StreamShape{}, Schedule{20000, false, false});
}

TEST(CoreReferenceTest, RandomConfigsMatchWindowScan)
{
    // One to eight 64-slot words of ready bits (200 and 512 make select
    // wrap across four and eight), each size at every issue width.
    const unsigned rob_sizes[] = {16, 96, 128, 200, 512};
    const unsigned num_sizes = std::size(rob_sizes);
    std::mt19937_64 rng(2024);
    for (unsigned trial = 0; trial < 16 * num_sizes; ++trial) {
        CoreConfig cfg;
        cfg.robSizeMax = rob_sizes[trial % num_sizes];
        cfg.issueWidth = 1 + (trial / num_sizes) % 4;
        cfg.fetchWidth = 1 + rng() % 4;
        cfg.commitWidth = 1 + rng() % 4;
        cfg.frontendDepth = 1 + rng() % 5;
        cfg.loadQueueSize = 2 + rng() % 32;
        cfg.storeQueueSize = 2 + rng() % 16;
        cfg.mispredictRedirectCycles = rng() % 8;
        cfg.intMulLatency = 1 + rng() % 6;
        cfg.intDivLatency = 1 + rng() % 20;
        cfg.fpAluLatency = 1 + rng() % 6;
        cfg.fpMulLatency = 1 + rng() % 8;
        cfg.fpDivLatency = 1 + rng() % 20;
        // Port counts 0..3; a group without ports sees none of its ops
        // (DeadPortGroupStallsLikeWindowScan covers the other case).
        StreamShape shape;
        const auto ports = [&](std::initializer_list<OpClass> classes) {
            const unsigned n = static_cast<unsigned>(rng() % 4);
            for (OpClass c : classes)
                shape.classWeights[static_cast<size_t>(c)] =
                    n == 0 ? 0 : 1 + static_cast<unsigned>(rng() % 6);
            return n;
        };
        cfg.aluPorts = ports({OpClass::IntAlu, OpClass::Branch});
        cfg.mulDivPorts = ports({OpClass::IntMul, OpClass::IntDiv});
        cfg.fpPorts = ports({OpClass::FpAlu, OpClass::FpMul, OpClass::FpDiv});
        cfg.loadPorts = ports({OpClass::Load});
        cfg.storePorts = ports({OpClass::Store});
        if (std::all_of(shape.classWeights.begin(),
                        shape.classWeights.end(),
                        [](unsigned w) { return w == 0; })) {
            cfg.aluPorts = 1;
            shape.classWeights[static_cast<size_t>(OpClass::IntAlu)] = 1;
        }
        // Far or near producers, roaming or hot data (the latter keeps
        // many ready ops competing for the ports), few or many
        // unpredictable branches.
        shape.maxDist = static_cast<uint16_t>(rng() % 2 ? 512 : 24);
        shape.dataFootprint = rng() % 2 ? 64 * 1024 : 2048;
        shape.randomBranchPct = static_cast<unsigned>(rng() % 3) * 25;
        expectLockStep(cfg, smallCaches(), 100 + trial, shape);
        if (testing::Test::HasFatalFailure())
            return;
    }
}

TEST(CoreReferenceTest, DeadPortGroupStallsLikeWindowScan)
{
    // No multiply/divide port: the first such op never issues, blocks
    // commit, and the ROB fills behind it exactly as the scan has it,
    // until a mispredicted branch that waits on it stops fetch (at 20
    // entries with this stream). The 512-entry case fills its whole ROB
    // (no branches, queues as large as the ROB, no resizes), so the
    // last ops to issue sit in the last of eight bitmap words.
    for (const unsigned rob : {128u, 512u}) {
        CoreConfig cfg;
        cfg.robSizeMax = rob;
        cfg.mulDivPorts = 0;
        StreamShape shape;
        shape.classWeights = {20, 1, 1, 1, 1, 1, 6, 3, 4};
        if (rob == 512) {
            cfg.loadQueueSize = cfg.storeQueueSize = rob;
            shape.classWeights.back() = 0;
        }
        expectLockStep(cfg, smallCaches(), 7, shape,
                       Schedule{3000, rob != 512, true, 1});
    }
}

TEST(CoreReferenceTest, SerialChainsAndLongLatenciesMatch)
{
    // Dependency distance 1 on both sources (equal) or none, through
    // slow multiplies and divides (one far beyond any memory latency)
    // and missing loads.
    CoreConfig cfg;
    cfg.intDivLatency = 30;
    cfg.fpDivLatency = 1500;
    StreamShape shape;
    shape.maxDist = 2;
    shape.dataFootprint = 1 << 20;
    for (uint64_t seed = 11; seed <= 13; ++seed)
        expectLockStep(cfg, smallCaches(), seed, shape, Schedule{30000});
}

} // namespace
} // namespace mimoarch
