/**
 * @file
 * Synthetic stream tests: determinism, instruction-mix convergence,
 * working-set confinement, phase transitions, branch-site behaviour,
 * and seeking back to a cursor.
 */

#include <array>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "workload/synthetic_stream.hpp"

namespace mimoarch {
namespace {

AppSpec
simpleApp()
{
    AppSpec app;
    app.name = "test";
    app.seed = 42;
    PhaseSpec p;
    p.loadFrac = 0.3;
    p.storeFrac = 0.1;
    p.branchFrac = 0.2;
    p.hotBytes = 16 * 1024;
    p.lengthEpochs = 10;
    app.phases.push_back(p);
    return app;
}

TEST(SyntheticStream, DeterministicForSameSeed)
{
    SyntheticStream a(simpleApp());
    SyntheticStream b(simpleApp());
    for (int i = 0; i < 1000; ++i) {
        const MicroOp oa = a.next();
        const MicroOp ob = b.next();
        EXPECT_EQ(oa.cls, ob.cls);
        EXPECT_EQ(oa.addr, ob.addr);
        EXPECT_EQ(oa.pc, ob.pc);
        EXPECT_EQ(oa.taken, ob.taken);
    }
}

TEST(SyntheticStream, SaltChangesTheStream)
{
    SyntheticStream a(simpleApp(), 0);
    SyntheticStream b(simpleApp(), 1);
    int diffs = 0;
    for (int i = 0; i < 200; ++i)
        if (a.next().cls != b.next().cls)
            ++diffs;
    EXPECT_GT(diffs, 10);
}

TEST(SyntheticStream, MixConvergesToSpec)
{
    SyntheticStream s(simpleApp());
    std::array<int, kNumOpClasses> counts{};
    const int n = 60000;
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<size_t>(s.next().cls)];
    const auto frac = [&](OpClass c) {
        return static_cast<double>(counts[static_cast<size_t>(c)]) / n;
    };
    EXPECT_NEAR(frac(OpClass::Load), 0.3, 0.02);
    EXPECT_NEAR(frac(OpClass::Store), 0.1, 0.02);
    EXPECT_NEAR(frac(OpClass::Branch), 0.2, 0.02);
}

TEST(SyntheticStream, HotAddressesStayInWorkingSet)
{
    AppSpec app = simpleApp();
    app.phases[0].streamFrac = 0.0;
    SyntheticStream s(app);
    for (int i = 0; i < 20000; ++i) {
        const MicroOp op = s.next();
        if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
            EXPECT_GE(op.addr, 0x1000'0000u);
            EXPECT_LT(op.addr, 0x1000'0000u + 16 * 1024 + 64);
        }
    }
}

TEST(SyntheticStream, StreamingAddressesAdvanceSequentially)
{
    AppSpec app = simpleApp();
    app.phases[0].streamFrac = 1.0;
    SyntheticStream s(app);
    uint64_t last = 0;
    int mem_ops = 0;
    for (int i = 0; i < 5000 && mem_ops < 100; ++i) {
        const MicroOp op = s.next();
        if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
            if (mem_ops > 0) {
                EXPECT_EQ(op.addr, last + 64);
            }
            last = op.addr;
            ++mem_ops;
        }
    }
    EXPECT_GE(mem_ops, 100);
}

TEST(SyntheticStream, PhaseAdvancesAfterConfiguredEpochs)
{
    AppSpec app = simpleApp();
    PhaseSpec second = app.phases[0];
    second.loadFrac = 0.05;
    second.lengthEpochs = 5;
    app.phases.push_back(second);

    SyntheticStream s(app);
    EXPECT_EQ(s.currentPhase(), 0u);
    for (int e = 0; e < 10; ++e)
        s.nextEpoch();
    EXPECT_EQ(s.currentPhase(), 1u);
    for (int e = 0; e < 5; ++e)
        s.nextEpoch();
    EXPECT_EQ(s.currentPhase(), 0u); // wraps around
}

TEST(SyntheticStream, EpochsLeftInPhaseCountsToTheEntry)
{
    AppSpec app = simpleApp();
    PhaseSpec second = app.phases[0];
    second.lengthEpochs = 0; // left after one epoch, like a length of 1
    app.phases.push_back(second);

    SyntheticStream s(app);
    for (uint64_t left = 10; left > 0; --left) {
        EXPECT_EQ(s.epochsLeftInPhase(), left);
        EXPECT_EQ(s.currentPhase(), 0u);
        s.nextEpoch();
    }
    EXPECT_EQ(s.currentPhase(), 1u);
    EXPECT_EQ(s.epochsLeftInPhase(), 1u);
    s.nextEpoch();
    EXPECT_EQ(s.currentPhase(), 0u);
}

TEST(SyntheticStream, SeekRepeatsTheOpsAfterACursor)
{
    // Half the memory ops stream through a 4 KiB region, so both walk
    // pointers wrap between the cursor and the seek.
    AppSpec app = simpleApp();
    app.phases[0].streamFrac = 0.5;
    app.phases[0].streamBytes = 4096;
    app.phases[0].codeBytes = 256;
    SyntheticStream s(app, 3);
    for (int i = 0; i < 1000; ++i)
        (void)s.next();
    const SyntheticStream::Cursor at = s.cursor();
    std::vector<MicroOp> first;
    for (int i = 0; i < 5000; ++i)
        first.push_back(s.next());
    s.seek(at);
    for (int i = 0; i < 5000; ++i) {
        const MicroOp op = s.next();
        ASSERT_EQ(op.cls, first[i].cls) << i;
        ASSERT_EQ(op.srcDist0, first[i].srcDist0) << i;
        ASSERT_EQ(op.srcDist1, first[i].srcDist1) << i;
        ASSERT_EQ(op.addr, first[i].addr) << i;
        ASSERT_EQ(op.pc, first[i].pc) << i;
        ASSERT_EQ(op.taken, first[i].taken) << i;
    }
}

TEST(SyntheticStream, PhaseChangesTheMix)
{
    AppSpec app = simpleApp();
    PhaseSpec second = app.phases[0];
    second.loadFrac = 0.02;
    second.storeFrac = 0.02;
    app.phases.push_back(second);
    SyntheticStream s(app);

    const auto load_frac = [&] {
        int loads = 0;
        const int n = 20000;
        for (int i = 0; i < n; ++i)
            if (s.next().cls == OpClass::Load)
                ++loads;
        return static_cast<double>(loads) / n;
    };
    const double phase0 = load_frac();
    for (int e = 0; e < 10; ++e)
        s.nextEpoch();
    const double phase1 = load_frac();
    EXPECT_GT(phase0, 0.25);
    EXPECT_LT(phase1, 0.08);
}

TEST(SyntheticStream, DependencyDistancesRespectMean)
{
    AppSpec app = simpleApp();
    app.phases[0].meanDepDist = 8.0;
    SyntheticStream s(app);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += s.next().srcDist0;
    const double mean = sum / n;
    EXPECT_GT(mean, 5.0);
    EXPECT_LT(mean, 11.0);
}

TEST(SyntheticStream, BranchSitesReusePcs)
{
    SyntheticStream s(simpleApp());
    std::map<uint64_t, int> pcs;
    for (int i = 0; i < 30000; ++i) {
        const MicroOp op = s.next();
        if (op.cls == OpClass::Branch)
            ++pcs[op.pc];
    }
    // 64 sites (possibly with a few collisions).
    EXPECT_LE(pcs.size(), 64u);
    EXPECT_GE(pcs.size(), 16u);
}

TEST(SyntheticStream, EmptyPhasesIsFatal)
{
    AppSpec app;
    app.name = "broken";
    EXPECT_EXIT(SyntheticStream s(app), testing::ExitedWithCode(1),
                "no phases");
}

} // namespace
} // namespace mimoarch
