/**
 * @file
 * ChaosInjector: seeded fault injection for the *execution* layer —
 * the sweep-engine analogue of src/robustness's FaultInjector for the
 * control loop. Armed, it makes worker jobs throw, stall, or deliver
 * invalid results on a schedule that is a pure function of
 * (chaos seed, job seed, attempt number), so a chaos campaign is
 * exactly reproducible and — crucially — *clears* on retry: an attempt
 * that was chaos-failed re-runs with a different attempt number,
 * usually samples None, and produces the bit-identical result a
 * chaos-free run would have (see tests/exec/chaos_equivalence_test).
 * Every build type compiles it; a sweep with no --chaos-* rate set is
 * never armed and pays one branch per job attempt.
 */

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"

namespace mimoarch::exec {

/** Chaos environment for one sweep (plain data; see parseSweepArgs). */
struct ChaosConfig
{
    uint64_t seed = 0xC4A05;
    /** Probability that an attempt throws before the job runs. */
    double exceptionRate = 0.0;
    /** Probability that an attempt stalls for delayMs first. */
    double delayRate = 0.0;
    /** Probability that an attempt's result is declared invalid. */
    double invalidRate = 0.0;
    /** Stall length for delay injections (cancellation-aware sleep). */
    uint32_t delayMs = 50;

    bool
    any() const
    {
        return exceptionRate > 0.0 || delayRate > 0.0 ||
               invalidRate > 0.0;
    }
};

/** What the injector does to one (job, attempt). */
enum class ChaosAction : uint8_t { None, Throw, Delay, Invalid };

/** The exception a Throw injection raises inside the worker. */
class ChaosError : public std::runtime_error
{
  public:
    explicit ChaosError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Deterministic per-(job, attempt) chaos sampler. */
class ChaosInjector
{
  public:
    explicit ChaosInjector(const ChaosConfig &config = {})
        : config_(config)
    {}

    uint32_t delayMs() const { return config_.delayMs; }

    /**
     * The verdict for @p job_seed's attempt @p attempt: a pure hash of
     * (chaos seed, job seed, attempt), identical across runs, worker
     * counts, and schedules.
     */
    ChaosAction
    sample(uint64_t job_seed, unsigned attempt) const
    {
        if (!config_.any())
            return ChaosAction::None;
        Fnv64 h;
        h.u64(config_.seed).u64(job_seed).u64(attempt);
        // 53 uniform bits -> [0, 1).
        const double u = static_cast<double>(h.value() >> 11) *
                         (1.0 / 9007199254740992.0);
        if (u < config_.exceptionRate)
            return ChaosAction::Throw;
        if (u < config_.exceptionRate + config_.delayRate)
            return ChaosAction::Delay;
        if (u < config_.exceptionRate + config_.delayRate +
                    config_.invalidRate)
            return ChaosAction::Invalid;
        return ChaosAction::None;
    }

  private:
    ChaosConfig config_;
};

} // namespace mimoarch::exec
