/**
 * @file
 * DesignCache tests: one computation per key no matter how many
 * threads ask at once, distinct keys get distinct entries, designs
 * computed from inside parallelFor threads equal solo ones bit for bit,
 * clear() leaves outstanding results valid, and
 * ExperimentConfig::fingerprint() actually discriminates
 * configurations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "common/parallel.hpp"
#include "exec/design_cache.hpp"

namespace mimoarch::exec {
namespace {

/** Small config so a cache miss costs well under a second. */
ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 200;
    cfg.validationEpochsPerApp = 100;
    return cfg;
}

TEST(DesignCache, SingleComputationPerKeyUnderContention)
{
    DesignCache cache;
    const ExperimentConfig cfg = tinyConfig();
    constexpr size_t kRequests = 32;
    std::vector<std::shared_ptr<const SisoModels>> got(kRequests);

    parallelFor(kRequests, 8,
                [&](size_t i) { got[i] = cache.sisoModels(cfg); });

    EXPECT_EQ(cache.designComputations(), 1ul);
    for (size_t i = 0; i < kRequests; ++i) {
        ASSERT_TRUE(got[i]) << i;
        EXPECT_EQ(got[i].get(), got[0].get()) << i;
    }
}

/** Same shape and the same double bit patterns. */
bool
bitEqual(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(double)) == 0;
}

bool
bitEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(DesignCache, ConcurrentDesignsMatchSolo)
{
    // Eight threads ask for two distinct design() keys at once. Each
    // computing thread collects its records through a nested
    // parallelFor on threads of its own.
    const ExperimentConfig cfg = tinyConfig();
    const KnobSpace knobs[2] = {KnobSpace(false), KnobSpace(true)};
    constexpr size_t kRequests = 8;
    DesignCache cache;
    std::vector<std::shared_ptr<const MimoDesignResult>> got(kRequests);
    parallelFor(kRequests, 8, [&](size_t i) {
        got[i] = cache.design(knobs[i % 2], cfg);
    });
    EXPECT_EQ(cache.designComputations(), 2ul);

    for (size_t k = 0; k < 2; ++k) {
        DesignCache fresh;
        const auto solo = fresh.design(knobs[k], cfg);
        for (size_t i = k; i < kRequests; i += 2) {
            ASSERT_TRUE(got[i]) << i;
            const StateSpaceModel &m = got[i]->model;
            EXPECT_TRUE(bitEqual(m.a, solo->model.a)) << i;
            EXPECT_TRUE(bitEqual(m.b, solo->model.b)) << i;
            EXPECT_TRUE(bitEqual(m.c, solo->model.c)) << i;
            EXPECT_TRUE(bitEqual(m.d, solo->model.d)) << i;
            EXPECT_TRUE(bitEqual(got[i]->weights.outputWeights,
                                 solo->weights.outputWeights)) << i;
            EXPECT_TRUE(bitEqual(got[i]->weights.inputWeights,
                                 solo->weights.inputWeights)) << i;
        }
    }
}

TEST(DesignCache, DistinctConfigsComputeSeparately)
{
    DesignCache cache;
    const ExperimentConfig a = tinyConfig();
    ExperimentConfig b = tinyConfig();
    b.sysidEpochsPerApp += 1;

    const auto ra = cache.sisoModels(a);
    const auto rb = cache.sisoModels(b);
    EXPECT_EQ(cache.designComputations(), 2ul);
    EXPECT_NE(ra.get(), rb.get());
    // Same config again: a hit, not a third computation.
    EXPECT_EQ(cache.sisoModels(a).get(), ra.get());
    EXPECT_EQ(cache.designComputations(), 2ul);
}

TEST(DesignCache, ClearLeavesOutstandingResultsValid)
{
    DesignCache cache;
    const ExperimentConfig cfg = tinyConfig();
    const auto before = cache.sisoModels(cfg);
    cache.clear();
    EXPECT_EQ(cache.designComputations(), 0ul);
    // The old result is still usable after the cache dropped it.
    EXPECT_EQ(before->cacheToIps.numInputs(), 1u);
    const auto after = cache.sisoModels(cfg);
    EXPECT_EQ(cache.designComputations(), 1ul);
    EXPECT_NE(before.get(), after.get());
}

TEST(ExperimentConfigFingerprint, EqualConfigsAgree)
{
    EXPECT_EQ(tinyConfig().fingerprint(), tinyConfig().fingerprint());
}

TEST(ExperimentConfigFingerprint, EveryTunedFieldDiscriminates)
{
    const uint64_t base = tinyConfig().fingerprint();
    const auto differs = [&](auto mutate) {
        ExperimentConfig cfg = tinyConfig();
        mutate(cfg);
        return cfg.fingerprint() != base;
    };
    EXPECT_TRUE(differs([](ExperimentConfig &c) { c.ipsWeight *= 2; }));
    EXPECT_TRUE(differs([](ExperimentConfig &c) { c.stateDimension++; }));
    EXPECT_TRUE(differs([](ExperimentConfig &c) { c.epochSeconds *= 2; }));
    EXPECT_TRUE(
        differs([](ExperimentConfig &c) { c.ipsReference += 0.5; }));
    EXPECT_TRUE(
        differs([](ExperimentConfig &c) { c.sysidEpochsPerApp++; }));
    EXPECT_TRUE(
        differs([](ExperimentConfig &c) { c.inputWeightScale *= 2; }));
}

} // namespace
} // namespace mimoarch::exec
