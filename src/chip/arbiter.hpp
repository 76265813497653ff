/**
 * @file
 * The chip-level budget arbiter (DESIGN.md §14): the slow outer loop
 * above the per-core MIMO controllers. Every arbiter period it reads
 * one demand record per core (measured IPS/power, memory-boundedness,
 * current references and way count, supervisor pin state) and returns
 * a full chip allocation: an exact partition of the shared L2's ways
 * and a split of the chip power envelope, expressed as re-targeted
 * per-core (IPS₀, P₀) references.
 *
 * Everything here is a *pure function* of the inputs: no internal
 * state, no clocks, no randomness, fixed index-order reductions. The
 * fuzz suite in tests/chip/arbiter_invariants_test.cpp holds the
 * arbiter to three invariants over arbitrary demands:
 *
 *   1. way totals: allocations sum exactly to l2Ways, every core ≥ 1
 *      way, way masks disjoint and covering;
 *   2. power totals: per-core power targets sum to ≤ the envelope;
 *   3. purity: same demands → bit-identical allocation, on any
 *      instance, with no iteration-order dependence.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace mimoarch::chip {

/** One core's input record to an arbitration round. */
struct CoreDemand
{
    double ips = 0.0;      //!< Measured true IPS (BIPS), last epoch.
    double power = 0.0;    //!< Measured true power (W), last epoch.
    double l2Mpki = 0.0;   //!< Memory-boundedness signal.
    double refIps = 0.0;   //!< Nominal (un-scaled) IPS reference.
    double refPower = 0.0; //!< Nominal (un-scaled) power reference.
    uint32_t ways = 0;     //!< Current L2 way allocation.
    /** Supervisor SafePin: the core must keep its references. */
    bool pinned = false;
};

/** One core's output record from an arbitration round. */
struct CoreAllocation
{
    uint32_t ways = 0;    //!< L2 ways granted.
    uint32_t wayMask = 0; //!< Concrete contiguous ways (bit w = way w).
    double ipsTarget = 0.0;
    double powerTarget = 0.0;
    /** False = leave the core's references alone (pinned cores). */
    bool retarget = false;
};

/** Arbiter parameters (from ChipConfig). */
struct ArbiterConfig
{
    uint32_t l2Ways = 8;
    double powerEnvelopeW = 0.0; //!< <= 0 disables the power split.
    /** k in the chip-wide IPS^k / P allocation score (k=2 -> E x D). */
    unsigned metricExponent = 2;
    /**
     * Memory-boundedness half point: a core at this L2 MPKI is modeled
     * as getting ~sqrt scaling benefit from extra ways.
     */
    double mpkiHalfPoint = 5.0;
};

/** Stateless chip-wide budget allocator. */
class BudgetArbiter
{
  public:
    explicit BudgetArbiter(const ArbiterConfig &config);

    /**
     * Partition l2Ways and the power envelope across @p demands.
     * Requires 1 <= demands.size() <= l2Ways. Pure and total: any
     * finite-or-not demand contents produce a valid partition.
     */
    std::vector<CoreAllocation>
    allocate(const std::vector<CoreDemand> &demands) const;

  private:
    ArbiterConfig config_;
};

} // namespace mimoarch::chip
