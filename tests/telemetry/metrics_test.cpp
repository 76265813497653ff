/**
 * @file
 * Telemetry metric primitives: registry publishes by name and
 * ordering, and property tests for the fixed-bucket log-scale
 * histogram — exact bucket boundaries, merging and quantile
 * monotonicity.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace mimoarch::telemetry {
namespace {

TEST(RegistryTest, PublishesAccumulateByName)
{
    Registry reg;
    reg.add("x", 7);
    reg.add("x", 35);
    EXPECT_EQ(reg.counters().at("x"), 42u);

    Histogram a;
    a.record(2);
    Histogram b;
    b.record(5);
    reg.merge("h", a);
    reg.merge("h", b);
    EXPECT_EQ(reg.histograms().at("h").count, 2u);
    EXPECT_EQ(reg.histograms().at("h").sum, 7u);

    // Same name, different kinds: independent metrics.
    reg.add("same", 1);
    reg.merge("same", a);
    EXPECT_EQ(reg.counters().at("same"), 1u);
    EXPECT_EQ(reg.histograms().at("same").count, 1u);

    // A zero publish registers the name: the key set an owner makes
    // at construction shows up even if it never counts anything.
    reg.add("zero", 0);
    reg.merge("empty", Histogram{});
    EXPECT_EQ(reg.counters().at("zero"), 0u);
    EXPECT_EQ(reg.histograms().at("empty").count, 0u);
    EXPECT_EQ(reg.counters().size(), 3u);
    EXPECT_EQ(reg.histograms().size(), 3u);
}

TEST(RegistryTest, ExportsAreNameSorted)
{
    Registry reg;
    reg.add("zeta", 1);
    reg.add("alpha", 2);
    reg.add("mid", 3);
    std::vector<std::string> names;
    for (const auto &[name, value] : reg.counters())
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

// ------------------------------------------------ histogram properties

TEST(HistogramTest, BucketBoundaries)
{
    // Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    for (size_t k = 1; k < 64; ++k) {
        const uint64_t pow = uint64_t{1} << k;
        EXPECT_EQ(Histogram::bucketOf(pow), k + 1) << "2^" << k;
        EXPECT_EQ(Histogram::bucketOf(pow - 1), k)
            << "2^" << k << "-1";
    }
    EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), 64u);

    EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
    EXPECT_EQ(Histogram::bucketUpperBound(63),
              (uint64_t{1} << 63) - 1);
    EXPECT_EQ(Histogram::bucketUpperBound(64), UINT64_MAX);

    // Every value must satisfy its own bucket's bounds.
    std::mt19937_64 rng(3);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t v = rng() >> (rng() % 64);
        const size_t b = Histogram::bucketOf(v);
        ASSERT_LT(b, Histogram::kBuckets);
        ASSERT_LE(v, Histogram::bucketUpperBound(b));
        if (b > 0) {
            ASSERT_GT(v, Histogram::bucketUpperBound(b - 1));
        }
    }
}

TEST(HistogramTest, RecordTracksCountSumMinMax)
{
    Histogram h;
    const uint64_t values[] = {5, 0, 1000, 42, 7};
    uint64_t sum = 0;
    for (uint64_t v : values) {
        h.record(v);
        sum += v;
    }
    EXPECT_EQ(h.count, 5u);
    EXPECT_EQ(h.sum, sum);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 1000u);
    EXPECT_EQ(h.buckets[Histogram::bucketOf(0)], 1u);
    EXPECT_EQ(h.buckets[Histogram::bucketOf(1000)], 1u);

    h = Histogram{};
    EXPECT_EQ(h.count, 0u);
    EXPECT_EQ(h.sum, 0u);
    EXPECT_EQ(h.min, UINT64_MAX);
    EXPECT_EQ(h.max, 0u);
}

Histogram
randomHistogram(uint64_t seed, int n)
{
    Histogram h;
    std::mt19937_64 rng(seed);
    for (int i = 0; i < n; ++i)
        h.record(rng() >> (rng() % 64));
    return h;
}

/** Field-by-field equality (Histogram is a plain aggregate). */
void
expectSameHistogram(const Histogram &a, const Histogram &b)
{
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    for (size_t i = 0; i < Histogram::kBuckets; ++i)
        EXPECT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
}

TEST(HistogramTest, MergeEqualsRecordingEverySample)
{
    // Two owners' histograms merged equal one that saw all samples:
    // counts, sums and buckets add, the extremes widen.
    std::mt19937_64 rng(11);
    Histogram all, left, right;
    for (int i = 0; i < 3000; ++i) {
        const uint64_t v = rng() >> (rng() % 64);
        all.record(v);
        (i % 3 == 0 ? left : right).record(v);
    }
    Histogram merged = left;
    merged.merge(right);
    expectSameHistogram(merged, all);

    // An empty histogram is the identity, on either side.
    Histogram from_empty;
    from_empty.merge(all);
    expectSameHistogram(from_empty, all);
    merged.merge(Histogram{});
    expectSameHistogram(merged, all);
}

TEST(HistogramTest, QuantileIsMonotoneAndBounded)
{
    for (uint64_t seed : {4u, 5u, 6u}) {
        const Histogram s = randomHistogram(seed, 1000);
        uint64_t prev = 0;
        for (int i = 0; i <= 100; ++i) {
            const double q = static_cast<double>(i) / 100.0;
            const uint64_t v = s.quantile(q);
            ASSERT_GE(v, s.min) << "q=" << q;
            ASSERT_LE(v, s.max) << "q=" << q;
            ASSERT_GE(v, prev) << "q=" << q << " seed " << seed;
            prev = v;
        }
    }
}

TEST(HistogramTest, QuantileEdgeCases)
{
    EXPECT_EQ(Histogram{}.quantile(0.5), 0u); // empty

    Histogram one;
    one.record(42);
    // A single sample: every quantile is that sample (the bucket upper
    // bound clamps into [min, max] = [42, 42]).
    EXPECT_EQ(one.quantile(0.0), 42u);
    EXPECT_EQ(one.quantile(0.5), 42u);
    EXPECT_EQ(one.quantile(1.0), 42u);

    // Out-of-range q is clamped, not UB.
    EXPECT_EQ(one.quantile(-3.0), 42u);
    EXPECT_EQ(one.quantile(7.0), 42u);
}

TEST(HistogramTest, QuantileUpperBoundProperty)
{
    // quantile(q) upper-bounds the true quantile: at least
    // ceil(q * count) samples are <= the returned value.
    std::mt19937_64 rng(17);
    Histogram s;
    std::vector<uint64_t> samples;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t v = rng() >> (rng() % 64);
        s.record(v);
        samples.push_back(v);
    }
    for (double q : {0.1, 0.5, 0.9, 0.99}) {
        const uint64_t v = s.quantile(q);
        const uint64_t target = static_cast<uint64_t>(
            std::ceil(q * static_cast<double>(samples.size())));
        uint64_t at_or_below = 0;
        for (uint64_t x : samples)
            if (x <= v)
                ++at_or_below;
        EXPECT_GE(at_or_below, target) << "q=" << q;
    }
}

} // namespace
} // namespace mimoarch::telemetry
