#include "chip/chip.hpp"

#include <algorithm>
#include <tuple>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"

namespace mimoarch::chip {

uint64_t
digest(const ChipRunSummary &s)
{
    Fnv64 h;
    h.u64(s.cores.size());
    for (const RunSummary &core : s.cores)
        h.u64(mimoarch::digest(core));
    h.f64(s.chipEnergyJ).f64(s.chipTimeS).f64(s.chipInstrB);
    h.u64(s.arbiterRounds).u64(s.retargets).u64(s.wayMoves);
    return h.value();
}

namespace {

ArbiterConfig
arbiterConfigOf(const ChipConfig &chip)
{
    ArbiterConfig a;
    a.l2Ways = chip.l2Ways;
    a.powerEnvelopeW = chip.powerEnvelopeW;
    a.metricExponent = chip.metricExponent;
    return a;
}

} // namespace

ChipInstance::ChipInstance(std::vector<ChipCore> cores,
                           const ChipConfig &chip,
                           const DriverConfig &driver)
    : cores_(std::move(cores)), chip_(chip), driver_(driver),
      arbiter_(arbiterConfigOf(chip))
{
    const size_t n = cores_.size();
    if (n == 0 || n > kMaxChipCores)
        fatal("ChipInstance: ", n, " cores outside [1, ", kMaxChipCores,
              "]");
    if (chip_.nCores != n)
        fatal("ChipInstance: ChipConfig.nCores = ", chip_.nCores,
              " but ", n, " core stacks were provided");
    if (chip_.arbiterEnabled && n > chip_.l2Ways)
        fatal("ChipInstance: ", n, " cores cannot partition ",
              chip_.l2Ways, " L2 ways");
    if (chip_.arbiterEnabled && chip_.arbiterPeriodEpochs == 0)
        fatal("ChipInstance: arbiterPeriodEpochs must be >= 1");
    for (size_t i = 0; i < n; ++i) {
        if (!cores_[i].plant || !cores_[i].controller)
            fatal("ChipInstance: core ", i, " is missing its plant or "
                  "controller");
    }
    drivers_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        drivers_.push_back(std::make_unique<EpochDriver>(
            *cores_[i].plant, *cores_[i].controller, driver_));
    currentMask_.assign(n, 0);
    nominalRefIps_.assign(n, 0.0);
    nominalRefPower_.assign(n, 0.0);
}

const EpochTrace &
ChipInstance::coreTrace(size_t i) const
{
    if (i >= drivers_.size())
        fatal("ChipInstance::coreTrace(", i, ") out of range");
    return drivers_[i]->trace();
}

void
ChipInstance::arbitrate(size_t epoch)
{
    const size_t n = cores_.size();
    std::vector<CoreDemand> demands(n);
    for (size_t i = 0; i < n; ++i) {
        CoreDemand &d = demands[i];
        d.ips = drivers_[i]->lastTrueIps();
        d.power = drivers_[i]->lastTruePower();
        d.l2Mpki = cores_[i].plant->lastL2Mpki();
        d.refIps = nominalRefIps_[i];
        d.refPower = nominalRefPower_[i];
        d.ways =
            static_cast<uint32_t>(__builtin_popcount(currentMask_[i]));
        d.pinned = cores_[i].controller->health().tier >= 3;
    }

    const std::vector<CoreAllocation> alloc = arbiter_.allocate(demands);

    ArbiterEvent ev;
    ev.epoch = epoch;
    ev.nCores = n;
    for (size_t i = 0; i < n; ++i) {
        ev.alloc[i] = alloc[i];

        if (alloc[i].wayMask != currentMask_[i]) {
            cores_[i].plant->setL2Partition(alloc[i].wayMask);
            currentMask_[i] = alloc[i].wayMask;
            ++wayMoves_;
        }

        // Re-target only cores the arbiter may move and that track a
        // real reference; a SafePinned core keeps the references its
        // safe configuration was chosen for.
        if (!alloc[i].retarget || demands[i].pinned)
            continue;
        if (nominalRefIps_[i] <= 0.0 || nominalRefPower_[i] <= 0.0)
            continue;
        const auto [cur_ips, cur_power] =
            cores_[i].controller->reference();
        if (cur_ips != alloc[i].ipsTarget ||
            cur_power != alloc[i].powerTarget) {
            cores_[i].controller->setReference(alloc[i].ipsTarget,
                                               alloc[i].powerTarget);
            ++retargets_;
        }
    }
    events_.push_back(ev);
}

ChipRunSummary
ChipInstance::run(const KnobSettings &initial, unsigned threads)
{
    const size_t n = cores_.size();
    events_.clear();
    retargets_ = 0;
    wayMoves_ = 0;

    // Initial partition: equal split, applied before warmup so the
    // whole run (including baselines) sees a partitioned L2. With the
    // arbiter disabled the plants are never partitioned at all — the
    // single-core equivalence contract.
    currentMask_.assign(n, 0);
    if (chip_.arbiterEnabled) {
        const BudgetArbiter equal(arbiterConfigOf(chip_));
        std::vector<CoreDemand> flat(n);
        for (size_t i = 0; i < n; ++i)
            flat[i].ways = 0; // invalid incumbent -> equal apportion
        const std::vector<CoreAllocation> alloc = equal.allocate(flat);
        for (size_t i = 0; i < n; ++i) {
            cores_[i].plant->setL2Partition(alloc[i].wayMask);
            currentMask_[i] = alloc[i].wayMask;
        }
    }

    // begin() warms a core up and takes its baselines; the references
    // it leaves are the nominal per-core operating points every later
    // re-target scales from (scaling the *current* reference would
    // compound round over round). Both touch only core i, and one
    // thread runs the cores inline in core order.
    parallelFor(n, threads, [&](size_t i) {
        drivers_[i]->begin(initial);
        std::tie(nominalRefIps_[i], nominalRefPower_[i]) =
            cores_[i].controller->reference();
    });

    // Cores meet only inside arbitrate(), so the epochs between two
    // rounds form one stretch in which every core steps alone. With
    // the arbiter off the whole run is one stretch.
    const size_t period = chip_.arbiterEnabled ? chip_.arbiterPeriodEpochs
                                               : driver_.epochs;
    for (size_t t0 = 0; t0 < driver_.epochs; t0 += period) {
        if (t0 > 0)
            arbitrate(t0);
        const size_t t1 = std::min(driver_.epochs, t0 + period);
        if (threads <= 1) {
            for (size_t t = t0; t < t1; ++t) {
                for (size_t i = 0; i < n; ++i)
                    drivers_[i]->stepEpoch();
            }
        } else {
            parallelFor(n, threads, [&](size_t i) {
                for (size_t t = t0; t < t1; ++t)
                    drivers_[i]->stepEpoch();
            });
        }
    }

    ChipRunSummary s;
    s.cores.reserve(n);
    for (size_t i = 0; i < n; ++i)
        s.cores.push_back(drivers_[i]->finish());
    for (const RunSummary &core : s.cores) {
        s.chipEnergyJ += core.totalEnergyJ;
        s.chipTimeS = std::max(s.chipTimeS, core.totalTimeS);
        s.chipInstrB += core.totalInstrB;
    }
    s.arbiterRounds = events_.size();
    s.retargets = retargets_;
    s.wayMoves = wayMoves_;
    return s;
}

} // namespace mimoarch::chip
