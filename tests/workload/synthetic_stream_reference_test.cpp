/**
 * @file
 * Differential test for SyntheticStream: a naive reference that keeps
 * the generator's original per-op arithmetic (a double compare per
 * Bernoulli draw, a subtract chain per class pick, a `%` per pointer
 * step) steps in lock-step with SyntheticStream on the same seeds.
 * After every op all six MicroOp fields and the phase must agree, and
 * on every phase entry each integer threshold and class cut that
 * SyntheticStream derived must sit exactly where the reference's
 * double compare changes its answer, so a cut one draw off fails even
 * though no random draw would land on it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "common/random.hpp"
#include "workload/spec_suite.hpp"
#include "workload/synthetic_stream.hpp"

namespace mimoarch {
namespace {

/** Rng's former geometric draw, kept for the reference. */
uint64_t
geometric(Rng &rng, double p, uint64_t max)
{
    uint64_t k = 1;
    while (k < max && !rng.bernoulli(p))
        ++k;
    return k;
}

/** The reference's class pick from r = uniform(). */
OpClass
pickClass(const PhaseSpec &p, double r)
{
    const auto take = [&](double frac) {
        if (r < frac)
            return true;
        r -= frac;
        return false;
    };
    if (take(p.loadFrac))
        return OpClass::Load;
    if (take(p.storeFrac))
        return OpClass::Store;
    if (take(p.branchFrac))
        return OpClass::Branch;
    if (take(p.intMulFrac))
        return OpClass::IntMul;
    if (take(p.intDivFrac))
        return OpClass::IntDiv;
    if (take(p.fpAluFrac))
        return OpClass::FpAlu;
    if (take(p.fpMulFrac))
        return OpClass::FpMul;
    if (take(p.fpDivFrac))
        return OpClass::FpDiv;
    return OpClass::IntAlu;
}

/** The generator as it was before its per-phase tables. */
class NaiveStream
{
  public:
    struct BranchSite
    {
        uint64_t pc;
        double takenProb;
    };

    NaiveStream(const AppSpec &spec, uint64_t seed_salt)
        : spec_(spec), rng_(spec.seed * 0x9E3779B97F4A7C15ull + seed_salt)
    {
        enterPhase(0);
    }

    void
    nextEpoch()
    {
        ++epochInPhase_;
        const PhaseSpec &p = spec_.phases[phaseIdx_];
        if (epochInPhase_ >= p.lengthEpochs)
            enterPhase((phaseIdx_ + 1) % spec_.phases.size());
    }

    MicroOp
    next()
    {
        const PhaseSpec &p = spec_.phases[phaseIdx_];
        MicroOp op;

        codePtr_ = (codePtr_ + 4) % std::max<uint64_t>(p.codeBytes, 64);
        if (rng_.bernoulli(0.02))
            codePtr_ = rng_.uniformInt(std::max<uint64_t>(p.codeBytes, 64));
        op.pc = kCodeBase + codePtr_;

        lastClassDraw_ = rng_.uniform();
        op.cls = pickClass(p, lastClassDraw_);

        const double p_stop = 1.0 / std::max(1.5, p.meanDepDist);
        op.srcDist0 = static_cast<uint16_t>(geometric(rng_, p_stop, 512));
        op.srcDist1 = rng_.bernoulli(0.25)
            ? static_cast<uint16_t>(geometric(rng_, p_stop * 0.5, 512))
            : 0;

        if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
            lastStreamDraw_ = rng_.uniform();
            if (lastStreamDraw_ < p.streamFrac) {
                streamPtr_ = (streamPtr_ + 64) %
                    std::max<uint64_t>(p.streamBytes, 4096);
                op.addr = kStreamBase + streamPtr_;
            } else {
                const uint64_t lines =
                    std::max<uint64_t>(p.hotBytes / 64, 1);
                const double u = rng_.uniform();
                const uint64_t line =
                    static_cast<uint64_t>(u * u * u *
                                          static_cast<double>(lines));
                op.addr = kHotBase + std::min(line, lines - 1) * 64 +
                    rng_.uniformInt(64);
            }
        } else if (op.cls == OpClass::Branch) {
            const BranchSite &site =
                branchSites_[rng_.uniformInt(branchSites_.size())];
            op.pc = site.pc;
            op.taken = rng_.bernoulli(site.takenProb);
        }
        return op;
    }

    size_t currentPhase() const { return phaseIdx_; }
    const PhaseSpec &phase() const { return spec_.phases[phaseIdx_]; }
    const std::vector<BranchSite> &branchSites() const { return branchSites_; }
    /** uniform() of the last class draw and of the last stream draw. */
    double lastClassDraw() const { return lastClassDraw_; }
    double lastStreamDraw() const { return lastStreamDraw_; }

  private:
    void
    enterPhase(size_t idx)
    {
        phaseIdx_ = idx;
        epochInPhase_ = 0;
        const PhaseSpec &p = spec_.phases[phaseIdx_];
        const size_t num_sites = 64;
        branchSites_.clear();
        branchSites_.reserve(num_sites);
        for (size_t i = 0; i < num_sites; ++i) {
            BranchSite site;
            site.pc = kCodeBase + (rng_.uniformInt(p.codeBytes / 4) * 4);
            if (rng_.uniform() < p.branchEntropy)
                site.takenProb = rng_.uniform(0.35, 0.65);
            else
                site.takenProb = rng_.bernoulli(0.8) ? 0.95 : 0.05;
            branchSites_.push_back(site);
        }
        streamPtr_ = 0;
        codePtr_ = 0;
    }

    static constexpr uint64_t kHotBase = 0x1000'0000;
    static constexpr uint64_t kStreamBase = 0x4000'0000;
    static constexpr uint64_t kCodeBase = 0x0040'0000;

    AppSpec spec_;
    Rng rng_;
    size_t phaseIdx_ = 0;
    uint64_t epochInPhase_ = 0;
    std::vector<BranchSite> branchSites_;
    uint64_t streamPtr_ = 0;
    uint64_t codePtr_ = 0;
    double lastClassDraw_ = 0.0;
    double lastStreamDraw_ = 0.0;
};

constexpr uint64_t kDraws = uint64_t{1} << 53; //!< Distinct top-53 draws.

/** Rng::uniform() of a draw whose top 53 bits are @p m. */
double
uniformOf(uint64_t m)
{
    return static_cast<double>(m) * 0x1.0p-53;
}

/**
 * @p t agrees with uniform() < @p p at draws t - 1, t and t + 1, which
 * (the compare being monotone in the draw) pins it as p's threshold.
 */
::testing::AssertionResult
isThresholdOf(uint64_t t, double p)
{
    if (t > kDraws)
        return ::testing::AssertionFailure() << "threshold " << t
                                             << " above 2^53 for p " << p;
    for (const uint64_t m : {t - 1, t, t + 1}) {
        if (m >= kDraws)
            continue; // t - 1 at t = 0, or past the last draw
        if ((m < t) != (uniformOf(m) < p))
            return ::testing::AssertionFailure()
                << "threshold " << t << " for p " << p << " disagrees at "
                << "draw " << m;
    }
    return ::testing::AssertionSuccess();
}

/** Position of @p cls in the reference's class chain. */
size_t
chainPosition(OpClass cls)
{
    constexpr OpClass kChain[kNumOpClasses] = {
        OpClass::Load,  OpClass::Store, OpClass::Branch,
        OpClass::IntMul, OpClass::IntDiv, OpClass::FpAlu,
        OpClass::FpMul, OpClass::FpDiv, OpClass::IntAlu,
    };
    return static_cast<size_t>(std::find(kChain, kChain + kNumOpClasses,
                                         cls) -
                               kChain);
}

/** Every per-phase value SyntheticStream derived, against the reference. */
::testing::AssertionResult
drawsMatch(const SyntheticStream &stream, const NaiveStream &naive)
{
    const SyntheticStream::PhaseDraws &d = stream.phaseDraws();
    const PhaseSpec &p = naive.phase();
    for (size_t i = 0; i < d.branchSites.size(); ++i) {
        const NaiveStream::BranchSite &site = naive.branchSites()[i];
        if (d.branchSites[i].pc != site.pc)
            return ::testing::AssertionFailure() << "branch site " << i
                                                 << " pc";
        auto r = isThresholdOf(d.branchSites[i].takenThreshold,
                               site.takenProb);
        if (!r)
            return r << " (branch site " << i << ")";
    }
    const double p_stop = 1.0 / std::max(1.5, p.meanDepDist);
    for (const auto &[t, prob, what] :
         {std::tuple{d.depStop0, p_stop, "first source stop"},
          std::tuple{d.depStop1, p_stop * 0.5, "second source stop"},
          std::tuple{d.streamAccess, p.streamFrac, "stream access"}}) {
        auto r = isThresholdOf(t, prob);
        if (!r)
            return r << " (" << what << ")";
    }
    // Cut k - 1 is the first draw whose class lies past the first k.
    for (size_t k = 1; k < kNumOpClasses; ++k) {
        const uint64_t cut = d.classCuts[k - 1];
        if (cut > kDraws ||
            (cut > 0 && chainPosition(pickClass(p, uniformOf(cut - 1))) >= k) ||
            (cut < kDraws && chainPosition(pickClass(p, uniformOf(cut))) < k))
            return ::testing::AssertionFailure()
                << "class cut " << k << " at draw " << cut;
    }
    if (d.codeBytes != std::max<uint64_t>(p.codeBytes, 64) ||
        d.streamBytes != std::max<uint64_t>(p.streamBytes, 4096) ||
        d.hotLines != std::max<uint64_t>(p.hotBytes / 64, 1))
        return ::testing::AssertionFailure() << "region sizes";
    return ::testing::AssertionSuccess();
}

bool
sameOp(const MicroOp &a, const MicroOp &b)
{
    return a.cls == b.cls && a.srcDist0 == b.srcDist0 &&
        a.srcDist1 == b.srcDist1 && a.addr == b.addr && a.pc == b.pc &&
        a.taken == b.taken;
}

/**
 * Step both streams @p ops ops, with an epoch every @p epoch_ops ops;
 * returns how many phase entries the run saw.
 */
size_t
expectLockStep(const AppSpec &app, uint64_t salt, uint64_t ops,
               uint64_t epoch_ops)
{
    SyntheticStream stream(app, salt);
    NaiveStream naive(app, salt);
    size_t phase_changes = 0;
    EXPECT_TRUE(drawsMatch(stream, naive)) << app.name << " salt " << salt;
    for (uint64_t i = 0; i < ops; ++i) {
        const MicroOp a = stream.next();
        const MicroOp b = naive.next();
        if (!sameOp(a, b)) {
            ADD_FAILURE() << app.name << " salt " << salt << " op " << i
                          << ": cls " << int(a.cls) << "/" << int(b.cls)
                          << " dist0 " << a.srcDist0 << "/" << b.srcDist0
                          << " dist1 " << a.srcDist1 << "/" << b.srcDist1
                          << " addr " << a.addr << "/" << b.addr << " pc "
                          << a.pc << "/" << b.pc << " taken " << a.taken
                          << "/" << b.taken;
            return phase_changes;
        }
        if ((i + 1) % epoch_ops == 0) {
            const size_t before = naive.currentPhase();
            stream.nextEpoch();
            naive.nextEpoch();
            if (naive.currentPhase() != before)
                ++phase_changes;
            // Every phase entry re-derives, including a one-phase app's
            // return to its only phase.
            const auto r = drawsMatch(stream, naive);
            if (!r) {
                ADD_FAILURE() << app.name << " salt " << salt << " op " << i
                              << ": " << r.message();
                return phase_changes;
            }
        }
        if (stream.currentPhase() != naive.currentPhase()) {
            ADD_FAILURE() << app.name << " salt " << salt << " op " << i
                          << ": phase " << stream.currentPhase() << " vs "
                          << naive.currentPhase();
            return phase_changes;
        }
    }
    return phase_changes;
}

TEST(SyntheticStreamReference, ThresholdMatchesUniformCompare)
{
    const double ps[] = {0.0,
                         0x1.0p-53,
                         0.02,
                         0.25,
                         1.0 - 0x1.0p-53,
                         1.0,
                         1.5,
                         -0.1,
                         std::numeric_limits<double>::quiet_NaN()};
    for (const double p : ps)
        EXPECT_TRUE(isThresholdOf(Rng::threshold(p), p));
    EXPECT_EQ(Rng::threshold(0.0), 0u);
    EXPECT_EQ(Rng::threshold(0x1.0p-53), 1u);
    EXPECT_EQ(Rng::threshold(1.0 - 0x1.0p-53), kDraws - 1);
    EXPECT_EQ(Rng::threshold(1.0), kDraws);
    EXPECT_EQ(Rng::threshold(1.5), kDraws);
    EXPECT_EQ(Rng::threshold(-0.1), 0u);
    EXPECT_EQ(Rng::threshold(std::numeric_limits<double>::quiet_NaN()), 0u);

    // below() compares the draw's top 53 bits with <, as uniform() < p
    // does, and takes one draw and answers as bernoulli() does on it.
    const uint64_t m = Rng(5).next() >> 11;
    Rng at(5), above(5);
    EXPECT_FALSE(at.below(m));
    EXPECT_TRUE(above.below(m + 1));
    for (const double p : ps) {
        Rng a(99), b(99);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(a.below(Rng::threshold(p)), b.bernoulli(p)) << p;
        ASSERT_EQ(a.next(), b.next());
    }
}

TEST(SyntheticStreamReference, EverySuiteAppMatchesAcrossPhases)
{
    // An epoch every 100 ops puts a phase entry every 30-40k ops
    // (phases last 300-400 epochs), so each multi-phase app changes
    // phase several times in 200k ops.
    for (const AppSpec &app : Spec2006Suite::all()) {
        for (uint64_t salt = 0; salt < 4; ++salt) {
            const size_t changes = expectLockStep(app, salt, 200000, 100);
            if (testing::Test::HasFailure())
                return;
            if (app.phases.size() > 1) {
                EXPECT_GE(changes, 4u) << app.name;
            }
        }
    }
}

/** A one-epoch-per-phase app cycling through @p phases. */
AppSpec
edgeApp(std::vector<PhaseSpec> phases)
{
    AppSpec app;
    app.name = "edge";
    app.seed = 7;
    for (PhaseSpec &p : phases)
        p.lengthEpochs = 1;
    app.phases = std::move(phases);
    return app;
}

TEST(SyntheticStreamReference, EdgePhasesMatch)
{
    std::vector<PhaseSpec> phases;
    PhaseSpec p;

    // A class fraction of 0 and one of 1.
    p = PhaseSpec{};
    p.loadFrac = 0.0;
    p.storeFrac = 1.0;
    phases.push_back(p);
    p = PhaseSpec{};
    p.branchFrac = 0.0;
    p.intMulFrac = 0.0;
    p.fpAluFrac = 1.0;
    phases.push_back(p);
    // Fractions summing to more than 1.
    p = PhaseSpec{};
    p.loadFrac = 0.5;
    p.storeFrac = 0.4;
    p.branchFrac = 0.3;
    p.intMulFrac = 0.2;
    p.fpMulFrac = 0.1;
    phases.push_back(p);
    // Dependency distances at and below the 1.5 floor, and far enough
    // that the 512 cap binds on a good share of the draws.
    p = PhaseSpec{};
    p.meanDepDist = 1.5;
    phases.push_back(p);
    p = PhaseSpec{};
    p.meanDepDist = 0.5;
    phases.push_back(p);
    p = PhaseSpec{};
    p.meanDepDist = 400.0;
    phases.push_back(p);
    // Regions below their floors; code not a multiple of 4 bytes. Half
    // the memory ops stream, so the 4096-byte stream wraps a few times
    // in one epoch.
    p = PhaseSpec{};
    p.codeBytes = 30;
    p.hotBytes = 32;
    phases.push_back(p);
    p = PhaseSpec{};
    p.streamBytes = 1000;
    p.streamFrac = 0.5;
    phases.push_back(p);
    // Streaming and branch entropy at 0 and at 1.
    for (const double x : {0.0, 1.0}) {
        p = PhaseSpec{};
        p.streamFrac = x;
        p.branchEntropy = x;
        phases.push_back(p);
    }

    const AppSpec app = edgeApp(phases);
    for (uint64_t salt = 0; salt < 4; ++salt) {
        // An epoch of 1,500 ops per phase: 20 epochs enter each of the
        // ten phases twice.
        const size_t changes = expectLockStep(app, salt, 30000, 1500);
        if (testing::Test::HasFailure())
            return;
        EXPECT_EQ(changes, 20u);
    }
}

TEST(SyntheticStreamReference, DrawsOnACutOrThresholdMatch)
{
    // No random draw lands on a cut, so put one there: a fraction equal
    // to a draw's uniform() places a class cut or the streaming
    // threshold exactly on that draw, where < and <= part. The draws
    // before the first op's class draw, and before the first memory
    // op's stream draw, do not depend on the fractions moved here.
    const AppSpec app = edgeApp({PhaseSpec{}});
    NaiveStream first(app, 0);
    first.next();
    const double class_draw = first.lastClassDraw();
    for (size_t k = 1; k < kNumOpClasses; ++k) {
        AppSpec at_cut = app;
        PhaseSpec &p = at_cut.phases[0];
        double *fracs[kNumOpClasses - 1] = {
            &p.loadFrac,   &p.storeFrac, &p.branchFrac, &p.intMulFrac,
            &p.intDivFrac, &p.fpAluFrac, &p.fpMulFrac,  &p.fpDivFrac,
        };
        for (size_t j = 0; j + 1 < k; ++j)
            *fracs[j] = 0.0;
        *fracs[k - 1] = class_draw;
        SyntheticStream stream(at_cut, 0);
        NaiveStream naive(at_cut, 0);
        EXPECT_EQ(uniformOf(stream.phaseDraws().classCuts[k - 1]),
                  class_draw) << "cut " << k;
        EXPECT_TRUE(sameOp(stream.next(), naive.next())) << "cut " << k;
    }

    NaiveStream probe(app, 0);
    uint64_t ops = 1;
    for (OpClass c = probe.next().cls;
         c != OpClass::Load && c != OpClass::Store; c = probe.next().cls)
        ++ops;
    AppSpec at_threshold = app;
    at_threshold.phases[0].streamFrac = probe.lastStreamDraw();
    SyntheticStream stream(at_threshold, 0);
    NaiveStream naive(at_threshold, 0);
    EXPECT_EQ(uniformOf(stream.phaseDraws().streamAccess),
              probe.lastStreamDraw());
    for (uint64_t i = 0; i < ops; ++i)
        EXPECT_TRUE(sameOp(stream.next(), naive.next())) << "op " << i;
}

TEST(SyntheticStreamReference, CapAndFloorsAreReached)
{
    // The edge phases above reach what they claim to: the 512 cap, a
    // code walk inside the 64-byte floor and a stream wrapping at the
    // 4096-byte floor.
    PhaseSpec far;
    far.meanDepDist = 400.0;
    PhaseSpec small;
    small.codeBytes = 30;
    small.streamBytes = 1000;
    small.streamFrac = 1.0;
    SyntheticStream cap(edgeApp({far}));
    SyntheticStream floors(edgeApp({small}));
    bool capped = false;
    uint64_t max_pc = 0, max_addr = 0;
    for (int i = 0; i < 5000; ++i) {
        const MicroOp a = cap.next();
        capped |= a.srcDist0 == 512 || a.srcDist1 == 512;
        const MicroOp b = floors.next();
        if (b.cls != OpClass::Branch)
            max_pc = std::max(max_pc, b.pc);
        if (b.cls == OpClass::Load || b.cls == OpClass::Store)
            max_addr = std::max(max_addr, b.addr);
    }
    EXPECT_TRUE(capped);
    EXPECT_LT(max_pc, 0x0040'0000u + 64);
    EXPECT_EQ(max_addr, 0x4000'0000u + 4096 - 64);
}

} // namespace
} // namespace mimoarch
