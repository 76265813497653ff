#include "workload/synthetic_stream.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace mimoarch {

namespace {

/** The mix's classes in draw order; IntAlu takes the remainder. */
constexpr OpClass kClassChain[kNumOpClasses] = {
    OpClass::Load,  OpClass::Store, OpClass::Branch,
    OpClass::IntMul, OpClass::IntDiv, OpClass::FpAlu,
    OpClass::FpMul, OpClass::FpDiv, OpClass::IntAlu,
};

/** A jump out of the sequential code walk. */
constexpr uint64_t kJump = Rng::threshold(0.02);
/** An op with a second source. */
constexpr uint64_t kSecondSource = Rng::threshold(0.25);

/**
 * Position in kClassChain of the class draw with top 53 bits @p m:
 * starting from r = uniform(), take the first class whose fraction
 * exceeds r, subtracting each fraction passed over.
 */
size_t
chainPosition(const PhaseSpec &p, uint64_t m)
{
    const double fracs[kNumOpClasses - 1] = {
        p.loadFrac, p.storeFrac, p.branchFrac, p.intMulFrac,
        p.intDivFrac, p.fpAluFrac, p.fpMulFrac, p.fpDivFrac,
    };
    double r = static_cast<double>(m) * 0x1.0p-53;
    size_t k = 0;
    while (k < kNumOpClasses - 1 && !(r < fracs[k])) {
        r -= fracs[k];
        ++k;
    }
    return k;
}

} // namespace

SyntheticStream::SyntheticStream(const AppSpec &spec, uint64_t seed_salt)
    : spec_(spec), rng_(spec.seed * 0x9E3779B97F4A7C15ull + seed_salt)
{
    if (spec_.phases.empty())
        fatal("app '", spec_.name, "' has no phases");
    enterPhase(0);
}

void
SyntheticStream::enterPhase(size_t idx)
{
    phaseIdx_ = idx;
    epochInPhase_ = 0;
    const PhaseSpec &p = spec_.phases[phaseIdx_];

    // Branch sites: a mix of biased (loop) and data-dependent branches.
    for (BranchSite &site : draws_.branchSites) {
        site.pc = kCodeBase + (rng_.uniformInt(p.codeBytes / 4) * 4);
        double taken_prob;
        if (rng_.uniform() < p.branchEntropy) {
            // Hard branch: outcome close to a coin flip.
            taken_prob = rng_.uniform(0.35, 0.65);
        } else {
            // Loop-style branch: strongly biased.
            taken_prob = rng_.bernoulli(0.8) ? 0.95 : 0.05;
        }
        site.takenThreshold = Rng::threshold(taken_prob);
    }

    // Class cuts. Each step of the subtract chain is monotone in r (a
    // rounded subtraction never reverses an order), so the draws that
    // get past the first k classes are exactly those at or above some
    // cut; bisection over the draws finds it with the chain itself.
    for (size_t k = 1; k < kNumOpClasses; ++k) {
        uint64_t lo = 0, hi = uint64_t{1} << 53; // 2^53: no draw passes
        while (lo < hi) {
            const uint64_t mid = lo + (hi - lo) / 2;
            if (chainPosition(p, mid) >= k)
                hi = mid;
            else
                lo = mid + 1;
        }
        draws_.classCuts[k - 1] = lo;
    }

    // Dependencies: geometric around the phase's ILP distance. A second
    // source reaches further back, so it rarely sits on the critical
    // path.
    const double p_stop = 1.0 / std::max(1.5, p.meanDepDist);
    draws_.depStop0 = Rng::threshold(p_stop);
    draws_.depStop1 = Rng::threshold(p_stop * 0.5);
    draws_.streamAccess = Rng::threshold(p.streamFrac);
    draws_.codeBytes = std::max<uint64_t>(p.codeBytes, 64);
    draws_.streamBytes = std::max<uint64_t>(p.streamBytes, 4096);
    draws_.hotLines = std::max<uint64_t>(p.hotBytes / 64, 1);
    streamPtr_ = 0;
    codePtr_ = 0;
}

void
SyntheticStream::nextEpoch()
{
    ++epoch_;
    ++epochInPhase_;
    const PhaseSpec &p = spec_.phases[phaseIdx_];
    if (epochInPhase_ >= p.lengthEpochs)
        enterPhase((phaseIdx_ + 1) % spec_.phases.size());
}

uint16_t
SyntheticStream::depDistance(uint64_t stop_threshold)
{
    // k >= 1 with P(k) proportional to (1 - p)^(k - 1), capped at 512.
    uint16_t k = 1;
    while (k < 512 && !rng_.below(stop_threshold))
        ++k;
    return k;
}

MicroOp
SyntheticStream::next()
{
    MicroOp op;

    // Sequential-ish code layout with occasional jumps. The pointer
    // stays below codeBytes >= 64, so one subtraction wraps a step.
    codePtr_ += 4;
    if (codePtr_ >= draws_.codeBytes)
        codePtr_ -= draws_.codeBytes;
    if (rng_.below(kJump))
        codePtr_ = rng_.uniformInt(draws_.codeBytes);
    op.pc = kCodeBase + codePtr_;

    // Pick the class from the mix.
    const uint64_t m = rng_.next() >> 11;
    size_t pos = 0;
    for (const uint64_t cut : draws_.classCuts)
        pos += m >= cut;
    op.cls = kClassChain[pos];

    // Dependencies. A second source exists for a quarter of the ops.
    op.srcDist0 = depDistance(draws_.depStop0);
    op.srcDist1 =
        rng_.below(kSecondSource) ? depDistance(draws_.depStop1) : 0;

    if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
        if (rng_.below(draws_.streamAccess)) {
            // Streaming access: sequential 64B-line walk.
            streamPtr_ += 64;
            if (streamPtr_ >= draws_.streamBytes)
                streamPtr_ -= draws_.streamBytes;
            op.addr = kStreamBase + streamPtr_;
        } else {
            // Hot-set access with a power-law reuse curve: most accesses
            // concentrate on the head of the region (which LRU keeps in
            // L1), while the tail exercises the L2 — real programs have
            // steep reuse-distance distributions.
            const double u = rng_.uniform();
            const uint64_t lines = draws_.hotLines;
            const uint64_t line =
                static_cast<uint64_t>(u * u * u *
                                      static_cast<double>(lines));
            op.addr = kHotBase + std::min(line, lines - 1) * 64 +
                rng_.uniformInt(64);
        }
    } else if (op.cls == OpClass::Branch) {
        const BranchSite &site =
            draws_.branchSites[rng_.uniformInt(draws_.branchSites.size())];
        op.pc = site.pc;
        op.taken = rng_.below(site.takenThreshold);
    }
    return op;
}

} // namespace mimoarch
