#include "exec/design_cache.hpp"

#include <cstdio>
#include <mutex>

#include "common/hash.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch::exec {

/**
 * One cache slot. The slot is inserted under the map lock, but the
 * (expensive) computation runs under the entry's own once_flag so
 * that (a) exactly one thread computes a given key while the others
 * block on that key alone, and (b) unrelated keys never serialize.
 */
struct DesignCache::Entry
{
    std::once_flag once;
    std::shared_ptr<const void> result;
};

DesignCache &
DesignCache::instance()
{
    static DesignCache cache;
    return cache;
}

template <typename T, typename ComputeFn>
std::shared_ptr<const T>
DesignCache::getOrCompute(uint64_t key, ComputeFn &&compute)
{
    std::shared_ptr<Entry> entry;
    {
        std::shared_lock<std::shared_mutex> lk(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end())
            entry = it->second;
    }
    if (!entry) {
        std::unique_lock<std::shared_mutex> lk(mutex_);
        entry = entries_.try_emplace(key, std::make_shared<Entry>())
                    .first->second;
    }
    std::call_once(entry->once, [&] {
        entry->result = std::shared_ptr<const void>(compute());
        std::unique_lock<std::shared_mutex> lk(mutex_);
        ++computations_;
    });
    return std::static_pointer_cast<const T>(entry->result);
}

std::shared_ptr<const MimoDesignResult>
DesignCache::design(const KnobSpace &knobs, const ExperimentConfig &cfg)
{
    // designFingerprint(): design products are fidelity-agnostic, so
    // an analytic sweep reuses its cycle-level twin's entry.
    Fnv64 h;
    h.str("mimo-design").u64(knobs.numInputs())
        .u64(cfg.designFingerprint());
    return getOrCompute<MimoDesignResult>(h.value(), [&] {
        std::fprintf(stderr,
                     "# designing %zu-input MIMO controller (system "
                     "identification on the training set)...\n",
                     knobs.numInputs());
        MimoControllerDesign flow(knobs, cfg);
        return std::make_shared<MimoDesignResult>(
            flow.design(Spec2006Suite::trainingSet(),
                        Spec2006Suite::validationSet()));
    });
}

std::shared_ptr<const SisoModels>
DesignCache::sisoModels(const ExperimentConfig &cfg)
{
    Fnv64 h;
    h.str("siso-models").u64(cfg.designFingerprint());
    return getOrCompute<SisoModels>(h.value(), [&] {
        std::fprintf(stderr,
                     "# identifying Decoupled SISO models (cache->IPS, "
                     "freq->power)...\n");
        KnobSpace knobs(false);
        MimoControllerDesign flow(knobs, cfg);
        auto [c2i, f2p] =
            flow.identifySisoModels(Spec2006Suite::trainingSet());
        auto models = std::make_shared<SisoModels>();
        models->cacheToIps = c2i;
        models->freqToPower = f2p;
        return models;
    });
}

std::shared_ptr<const SurrogateModel>
DesignCache::surrogate(const AppSpec &app, const KnobSpace &knobs,
                       const ExperimentConfig &cfg)
{
    Fnv64 h;
    h.str("surrogate-cal").str(app.name).u64(knobs.numInputs())
        .u64(cfg.designFingerprint());
    return getOrCompute<SurrogateModel>(h.value(), [&] {
        std::fprintf(stderr,
                     "# calibrating analytic surrogate for %s...\n",
                     app.name.c_str());
        return std::make_shared<SurrogateModel>(
            calibrateSurrogate(app, knobs, cfg));
    });
}

unsigned long
DesignCache::designComputations() const
{
    std::shared_lock<std::shared_mutex> lk(mutex_);
    return computations_;
}

void
DesignCache::clear()
{
    std::unique_lock<std::shared_mutex> lk(mutex_);
    entries_.clear();
    computations_ = 0;
}

} // namespace mimoarch::exec
