#include "exec/plant_factory.hpp"

#include "exec/design_cache.hpp"

namespace mimoarch::exec {

std::unique_ptr<Plant>
makePlant(const AppSpec &app, const KnobSpace &knobs,
          const ExperimentConfig &cfg, const ProcessorConfig &proc,
          uint64_t seed_salt)
{
    if (cfg.fidelity == PlantFidelity::Analytic) {
        return std::make_unique<SurrogatePlant>(
            DesignCache::instance().surrogate(app, knobs, cfg), knobs,
            seed_salt);
    }
    return std::make_unique<SimPlant>(app, knobs, proc, seed_salt);
}

} // namespace mimoarch::exec
