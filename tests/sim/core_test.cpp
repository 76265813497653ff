/**
 * @file
 * Core pipeline tests using hand-built instruction sources: issue-width
 * limits, dependency serialization, memory stalls, branch mispredict
 * penalties, ROB resizing, counter consistency, and cycle-exact select
 * and wakeup cases.
 */

#include <gtest/gtest.h>

#include "sim/core.hpp"

namespace mimoarch {
namespace {

/** Emits the same micro-op forever. */
class RepeatSource : public InstructionSource
{
  public:
    explicit RepeatSource(MicroOp op) : op_(op) {}

    MicroOp
    next() override
    {
        MicroOp op = op_;
        op.pc = 0x400000 + (pc_ += 4) % 4096;
        return op;
    }

  private:
    MicroOp op_;
    uint64_t pc_ = 0;
};

/** Cycles through a fixed vector of micro-ops. */
class LoopSource : public InstructionSource
{
  public:
    explicit LoopSource(std::vector<MicroOp> ops) : ops_(std::move(ops)) {}

    MicroOp
    next() override
    {
        MicroOp op = ops_[idx_ % ops_.size()];
        op.pc = 0x400000 + (idx_ * 4) % 4096;
        ++idx_;
        return op;
    }

  private:
    std::vector<MicroOp> ops_;
    size_t idx_ = 0;
};

/** Emits a fixed script, then one filler op forever. */
class ScriptSource : public InstructionSource
{
  public:
    ScriptSource(std::vector<MicroOp> script, MicroOp filler)
        : script_(std::move(script)), filler_(filler)
    {
    }

    MicroOp
    next() override
    {
        MicroOp op = idx_ < script_.size() ? script_[idx_] : filler_;
        op.pc = 0x400000 + idx_ * 4;
        ++idx_;
        return op;
    }

  private:
    std::vector<MicroOp> script_;
    MicroOp filler_;
    size_t idx_ = 0;
};

MicroOp
ofClass(OpClass cls, uint16_t dep = 0)
{
    MicroOp op;
    op.cls = cls;
    op.srcDist0 = dep;
    return op;
}

MicroOp
alu(uint16_t dep = 0)
{
    return ofClass(OpClass::IntAlu, dep);
}

/**
 * A 4-wide core without FP ports, so an FpDiv filler after a script
 * never issues and the script's ops are the only ones that can.
 */
CoreConfig
scriptConfig()
{
    CoreConfig cfg;
    cfg.fetchWidth = 4;
    cfg.issueWidth = 4;
    cfg.fpPorts = 0;
    return cfg;
}

/** Step until @p n ops have dispatched (they then issue from the next
 *  cycle on); false if that takes implausibly long. */
bool
runUntilDispatched(Core &core, uint64_t n)
{
    for (int i = 0; i < 10000 && core.counters().dispatched < n; ++i)
        core.cycle(1.0);
    return core.counters().dispatched >= n;
}

/** Cumulative issue count after each of the next @p cycles cycles. */
std::vector<uint64_t>
issuedPerCycle(Core &core, unsigned cycles)
{
    std::vector<uint64_t> issued;
    for (unsigned i = 0; i < cycles; ++i) {
        core.cycle(1.0);
        issued.push_back(core.counters().issued);
    }
    return issued;
}

TEST(Core, IndependentAluOpsReachIssueWidth)
{
    RepeatSource src(alu());
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(20000, 1.0); // warm the I-cache
    core.resetCounters();
    core.run(3000, 1.0);
    // Ideal IPC for independent 1-cycle ALU ops is ~min(width, aluPorts)
    // = 2 with the default 2 ALU ports.
    EXPECT_GT(core.counters().ipc(), 1.8);
    EXPECT_LE(core.counters().ipc(), 2.05);
}

TEST(Core, SerialDependencyChainLimitsIpcToOne)
{
    RepeatSource src(alu(1)); // each op depends on the previous
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(20000, 1.0);
    core.resetCounters();
    core.run(3000, 1.0);
    EXPECT_GT(core.counters().ipc(), 0.85);
    EXPECT_LE(core.counters().ipc(), 1.05);
}

TEST(Core, LongerDependencyDistanceRaisesIpc)
{
    const auto ipc_for = [](uint16_t dist) {
        RepeatSource src(alu(dist));
        MemoryHierarchy mem;
        Core core(CoreConfig{}, &src, &mem);
        core.run(20000, 1.0);
        core.resetCounters();
        core.run(3000, 1.0);
        return core.counters().ipc();
    };
    EXPECT_LT(ipc_for(1), ipc_for(2));
    EXPECT_LE(ipc_for(2), ipc_for(4) + 0.05);
}

TEST(Core, MulDivPortSerializesMultiplies)
{
    MicroOp mul;
    mul.cls = OpClass::IntMul;
    RepeatSource src(mul);
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(20000, 1.0);
    core.resetCounters();
    core.run(3000, 1.0);
    // One mul/div port, pipelined 1/cycle issue -> IPC ~<= 1.
    EXPECT_LE(core.counters().ipc(), 1.05);
}

TEST(Core, CacheMissLoadsThrottleIpc)
{
    // Loads striding through a huge region: every line is a miss.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 64; ++i) {
        MicroOp ld;
        ld.cls = OpClass::Load;
        ld.srcDist0 = 1; // dependent on previous -> serialized misses
        ld.addr = static_cast<uint64_t>(i) * 1024 * 1024;
        ops.push_back(ld);
    }
    LoopSource src(ops);
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(20000, 2.0);
    EXPECT_LT(core.counters().ipc(), 0.05);
    EXPECT_GT(core.counters().l1dMisses, 0u);
    EXPECT_GT(core.counters().memAccesses, 0u);
}

TEST(Core, L1HitLoadsKeepHighIpc)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 16; ++i) {
        MicroOp ld;
        ld.cls = OpClass::Load;
        ld.addr = static_cast<uint64_t>(i) * 64; // 1KB hot set
        ops.push_back(ld);
        ops.push_back(alu());
        ops.push_back(alu());
    }
    LoopSource src(ops);
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(20000, 1.0);
    core.resetCounters();
    core.run(5000, 1.0);
    EXPECT_GT(core.counters().ipc(), 1.5);
}

TEST(Core, MispredictsReduceIpc)
{
    // Branches with a random outcome vs always-taken.
    const auto ipc_for = [](bool random) {
        std::vector<MicroOp> ops;
        for (int i = 0; i < 97; ++i) {
            MicroOp op;
            if (i % 5 == 0) {
                op.cls = OpClass::Branch;
                op.taken = random ? ((i * 2654435761u) >> 13) % 2 : true;
                op.pc = 0x400000 + static_cast<uint64_t>(i % 7) * 64;
            } else {
                op = MicroOp{};
            }
            ops.push_back(op);
        }
        LoopSource src(ops);
        MemoryHierarchy mem;
        Core core(CoreConfig{}, &src, &mem);
        core.run(20000, 1.0);
        core.resetCounters();
        core.run(10000, 1.0);
        return core.counters().ipc();
    };
    EXPECT_LT(ipc_for(true) * 1.2, ipc_for(false));
}

TEST(Core, SmallerRobLowersMemoryLevelParallelism)
{
    // Independent missing loads: a big ROB overlaps many misses.
    const auto ipc_for = [](unsigned rob) {
        std::vector<MicroOp> ops;
        for (int i = 0; i < 128; ++i) {
            MicroOp ld;
            ld.cls = OpClass::Load;
            ld.addr = static_cast<uint64_t>(i * 7919) * 4096;
            ops.push_back(ld);
            ops.push_back(alu());
        }
        LoopSource src(ops);
        MemoryHierarchy mem;
        Core core(CoreConfig{}, &src, &mem);
        core.setRobSize(rob);
        core.run(30000, 2.0);
        return core.counters().ipc();
    };
    EXPECT_GT(ipc_for(128), 1.3 * ipc_for(16));
}

TEST(Core, RobResizeValidation)
{
    RepeatSource src(alu());
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    EXPECT_EXIT(core.setRobSize(8), testing::ExitedWithCode(1), "ROB");
    EXPECT_EXIT(core.setRobSize(256), testing::ExitedWithCode(1), "ROB");
    core.setRobSize(64);
    EXPECT_EQ(core.robSize(), 64u);
}

TEST(Core, RobShrinkTakesEffect)
{
    RepeatSource src(alu());
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(100, 1.0);
    core.setRobSize(16);
    core.run(200, 1.0);
    EXPECT_LE(core.robOccupancy(), 16u);
}

TEST(Core, CountersAreConsistent)
{
    RepeatSource src(alu());
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(5000, 1.0);
    core.resetCounters();
    core.run(1000, 1.0);
    const CoreCounters &c = core.counters();
    EXPECT_EQ(c.cycles, 1000u);
    // Ops fetched before the counter reset may dispatch after it, so
    // allow slack of one fetch-queue depth.
    EXPECT_GE(c.fetched + 32, c.dispatched);
    EXPECT_GE(c.dispatched + 32, c.issued);
    EXPECT_GE(c.issued + 32, c.committed);
    uint64_t by_class = 0;
    for (uint64_t v : c.issuedByClass)
        by_class += v;
    EXPECT_EQ(by_class, c.issued);
}

TEST(Core, YoungerReadyAluIssuesPastLoadsBlockedOnTheLoadPort)
{
    // Three independent loads and a younger independent ALU op
    // dispatch together. The single load port takes the oldest load;
    // the ALU op does not wait behind the other two.
    CoreConfig cfg = scriptConfig();
    cfg.loadPorts = 1;
    MicroOp ld = ofClass(OpClass::Load);
    std::vector<MicroOp> script = {ld, ld, ld, alu()};
    script[1].addr = 64;
    script[2].addr = 128;
    ScriptSource src(script, ofClass(OpClass::FpDiv));
    MemoryHierarchy mem;
    Core core(cfg, &src, &mem);
    ASSERT_TRUE(runUntilDispatched(core, 4));
    ASSERT_EQ(core.counters().dispatched, 4u);
    ASSERT_EQ(core.counters().issued, 0u);
    const auto &by_class = core.counters().issuedByClass;
    const auto load = static_cast<size_t>(OpClass::Load);
    const auto int_alu = static_cast<size_t>(OpClass::IntAlu);
    core.cycle(1.0);
    EXPECT_EQ(by_class[load], 1u);
    EXPECT_EQ(by_class[int_alu], 1u);
    core.cycle(1.0);
    EXPECT_EQ(by_class[load], 2u);
    core.cycle(1.0);
    EXPECT_EQ(by_class[load], 3u);
}

TEST(Core, OpNeverIssuesInItsProducersCycle)
{
    // mul -> alu -> alu, dispatched together: the multiply issues
    // first, its consumer exactly intMulLatency cycles later, and the
    // last op the cycle after its 1-cycle producer, never with it.
    CoreConfig cfg = scriptConfig();
    cfg.intMulLatency = 4;
    ScriptSource src({ofClass(OpClass::IntMul), alu(1), alu(1)},
                     ofClass(OpClass::FpDiv));
    MemoryHierarchy mem;
    Core core(cfg, &src, &mem);
    ASSERT_TRUE(runUntilDispatched(core, 3));
    ASSERT_EQ(core.counters().issued, 0u);
    EXPECT_EQ(issuedPerCycle(core, 7),
              (std::vector<uint64_t>{1, 1, 1, 1, 2, 3, 3}));
}

TEST(Core, CommittedProducerNeverStallsItsConsumer)
{
    // A 16-entry ROB. Op 21 reads op 1, which has committed by then:
    // op 17, an FpDiv that never issues, now holds op 1's ROB slot.
    // The consumer must issue the cycle after it dispatches.
    CoreConfig cfg = scriptConfig();
    cfg.robSizeMax = 16;
    cfg.aluPorts = 4;
    std::vector<MicroOp> script(16, alu());
    script.push_back(ofClass(OpClass::FpDiv)); // op 17
    script.insert(script.end(), 3, alu());     // ops 18..20
    script.push_back(alu(20));                 // op 21 reads op 1
    ScriptSource src(script, ofClass(OpClass::FpDiv));
    MemoryHierarchy mem;
    Core core(cfg, &src, &mem);
    ASSERT_TRUE(runUntilDispatched(core, 21));
    EXPECT_GE(core.counters().committed, 1u);
    core.cycle(1.0);
    EXPECT_EQ(
        core.counters().issuedByClass[static_cast<size_t>(OpClass::IntAlu)],
        20u);
    EXPECT_EQ(core.counters().committed, 16u);
}

TEST(Core, EqualSourcesWaitOnTheirProducerOnce)
{
    // srcDist0 == srcDist1 names one producer: the consumer wakes when
    // that multiply's result is ready, exactly as with one source.
    const auto issue_trace = [](uint16_t second_dist) {
        CoreConfig cfg = scriptConfig();
        cfg.intMulLatency = 3;
        MicroOp consumer = alu(1);
        consumer.srcDist1 = second_dist;
        ScriptSource src({ofClass(OpClass::IntMul), consumer},
                         ofClass(OpClass::FpDiv));
        MemoryHierarchy mem;
        Core core(cfg, &src, &mem);
        EXPECT_TRUE(runUntilDispatched(core, 2));
        return issuedPerCycle(core, 5);
    };
    const std::vector<uint64_t> expected{1, 1, 1, 2, 2};
    EXPECT_EQ(issue_trace(1), expected);
    EXPECT_EQ(issue_trace(0), expected);
}

TEST(Core, ZeroLatencyIsFatal)
{
    RepeatSource src(alu());
    MemoryHierarchy mem;
    CoreConfig cfg;
    cfg.fpMulLatency = 0;
    EXPECT_EXIT(Core core(cfg, &src, &mem), testing::ExitedWithCode(1),
                "latencies");
    MemoryHierarchyConfig mcfg;
    mcfg.l1LatencyCycles = 0;
    MemoryHierarchy mem0(mcfg);
    EXPECT_EXIT(Core core(CoreConfig{}, &src, &mem0),
                testing::ExitedWithCode(1), "latencies");
}

TEST(Core, NullSourceIsFatal)
{
    MemoryHierarchy mem;
    EXPECT_EXIT(Core core(CoreConfig{}, nullptr, &mem),
                testing::ExitedWithCode(1), "instruction source");
}

} // namespace
} // namespace mimoarch
