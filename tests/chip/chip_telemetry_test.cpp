/**
 * @file
 * The loop metrics of a chip whose cores step on parallel threads: each
 * core's EpochDriver counts in its own fields and publishes once, at
 * finish(), so the registry holds every core's epochs exactly, with
 * the trace buffer armed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "chip/chip.hpp"
#include "core/controllers.hpp"
#include "core/plant.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

/** Counter @p name's value (0 before its first publish). */
uint64_t
counterValue(const char *name)
{
    const auto counters = telemetry::registry().counters();
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

/** Histogram @p name's sample count (0 before its first publish). */
uint64_t
histogramCount(const char *name)
{
    const auto histograms = telemetry::registry().histograms();
    const auto it = histograms.find(name);
    return it == histograms.end() ? 0 : it->second.count;
}

TEST(ChipTelemetry, ArmedParallelChipPublishesEveryCoreEpoch)
{
    constexpr size_t kCores = 4;
    constexpr size_t kEpochs = 300;
    const char *const loop_histograms[] = {
        "loop.epoch_ns", "loop.ips_err_bp", "loop.power_err_bp"};

    const ExperimentConfig cfg;
    const KnobSpace knobs(false);
    std::vector<chip::ChipCore> cores(kCores);
    const char *apps[kCores] = {"gamess", "mcf", "povray", "libquantum"};
    for (size_t i = 0; i < kCores; ++i) {
        cores[i].app = apps[i];
        cores[i].plant = std::make_unique<SimPlant>(
            Spec2006Suite::byName(apps[i]), knobs);
        cores[i].controller = std::make_unique<HeuristicArchController>(
            knobs, HeuristicArchController::Tuning{}, cfg.ipsReference,
            cfg.powerReference);
    }
    ChipConfig ccfg;
    ccfg.nCores = kCores;
    ccfg.arbiterEnabled = true;
    ccfg.arbiterPeriodEpochs = 100;
    ccfg.powerEnvelopeW = 0.75 * kCores * cfg.powerReference;
    DriverConfig dcfg;
    dcfg.epochs = kEpochs;
    dcfg.warmupEpochs = 20;

    const uint64_t epochs0 = counterValue("loop.epochs");
    uint64_t counts0[3];
    for (size_t h = 0; h < 3; ++h)
        counts0[h] = histogramCount(loop_histograms[h]);

    ASSERT_FALSE(telemetry::trace().enabled());
    telemetry::trace().start(size_t{1} << 13);
    {
        chip::ChipInstance inst(std::move(cores), ccfg, dcfg);
        (void)inst.run(KnobSettings{}, 4);
    }
    telemetry::trace().stop();
    EXPECT_EQ(telemetry::trace().dropped(), 0u);
    telemetry::trace().clear();

    EXPECT_EQ(counterValue("loop.epochs") - epochs0, kCores * kEpochs);
    for (size_t h = 0; h < 3; ++h) {
        EXPECT_EQ(histogramCount(loop_histograms[h]) - counts0[h],
                  kCores * kEpochs)
            << loop_histograms[h];
    }
}

} // namespace
} // namespace mimoarch
