/**
 * @file
 * Process-wide memoization of the expensive controller-design flow.
 *
 * Every figure bench and the integration tests start by running the
 * full Fig. 3 system-identification + LQG design on the training set.
 * The flow is deterministic (fixed internal seeds, see design_flow.cpp)
 * and always runs on the default processor, so its result is a pure
 * function of (knob space, ExperimentConfig) — exactly what this cache
 * keys on. Concurrent requests for the same key block behind one
 * computation; distinct keys compute in parallel. The computing thread
 * collects the flow's identification records through a parallelFor of
 * its own, so a request from inside a sweep job runs them on fresh
 * threads.
 * Replaces the ad-hoc function-local statics that used to live in
 * bench/bench_common.hpp.
 */

#pragma once

#include <map>
#include <memory>
#include <shared_mutex>

#include "core/design_flow.hpp"
#include "plant/surrogate.hpp"

namespace mimoarch::exec {

/** The two SISO models behind the Decoupled architecture. */
struct SisoModels
{
    StateSpaceModel cacheToIps;
    StateSpaceModel freqToPower;
};

/**
 * Keyed, thread-safe cache of design-flow products. Entries are
 * immutable once computed and are shared by reference-counted pointer,
 * so sweep jobs on any thread can hold them without lifetime games.
 */
class DesignCache
{
  public:
    /** The process-wide instance (benches, tests). */
    static DesignCache &instance();

    DesignCache() = default;
    DesignCache(const DesignCache &) = delete;
    DesignCache &operator=(const DesignCache &) = delete;

    /**
     * Memoized MimoControllerDesign::design() on the paper's training/
     * validation split, keyed on (inputs, cfg.designFingerprint()).
     */
    std::shared_ptr<const MimoDesignResult>
    design(const KnobSpace &knobs, const ExperimentConfig &cfg);

    /**
     * Memoized identifySisoModels() (2-input space) for the Decoupled
     * architecture, keyed on cfg.designFingerprint().
     */
    std::shared_ptr<const SisoModels>
    sisoModels(const ExperimentConfig &cfg);

    /**
     * Memoized calibrateSurrogate() for one application (DESIGN.md
     * §13). Keyed on (app, inputs, cfg.designFingerprint()):
     * calibration always runs the cycle-level simulator, so an
     * analytic config shares the entry with its cycle-level twin.
     */
    std::shared_ptr<const SurrogateModel>
    surrogate(const AppSpec &app, const KnobSpace &knobs,
              const ExperimentConfig &cfg);

    /**
     * Entries computed so far (not cache hits), of every kind: full
     * designs, SISO model pairs and surrogates — for tests.
     */
    unsigned long designComputations() const;

    /** Drop all entries (tests only; outstanding pointers stay valid). */
    void clear();

  private:
    struct Entry;

    /** Find-or-insert the entry for @p key, then run-once @p compute. */
    template <typename T, typename ComputeFn>
    std::shared_ptr<const T> getOrCompute(uint64_t key,
                                          ComputeFn &&compute);

    mutable std::shared_mutex mutex_;
    std::map<uint64_t, std::shared_ptr<Entry>> entries_;
    unsigned long computations_ = 0; //!< Guarded by mutex_.
};

} // namespace mimoarch::exec
