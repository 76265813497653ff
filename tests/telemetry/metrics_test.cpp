/**
 * @file
 * Telemetry metric primitives: counter semantics, registry idempotence
 * and ordering, and property tests for the fixed-bucket log-scale
 * histogram — exact bucket boundaries and quantile monotonicity.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace mimoarch::telemetry {
namespace {

TEST(CounterTest, AddAccumulatesAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(RegistryTest, RegistrationIsIdempotentWithStableAddresses)
{
    Registry reg;
    Counter &a = reg.counter("x");
    Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(7);
    EXPECT_EQ(reg.counter("x").value(), 7u);

    Histogram &h1 = reg.histogram("h");
    Histogram &h2 = reg.histogram("h");
    EXPECT_EQ(&h1, &h2);

    // Same name, different kinds: independent metrics.
    Counter &named_c = reg.counter("same");
    Histogram &named_h = reg.histogram("same");
    named_c.add(1);
    named_h.record(2);
    EXPECT_EQ(reg.counter("same").value(), 1u);
    EXPECT_EQ(reg.histogram("same").snapshot().count, 1u);
}

TEST(RegistryTest, ExportsAreNameSorted)
{
    Registry reg;
    reg.counter("zeta").add(1);
    reg.counter("alpha").add(2);
    reg.counter("mid").add(3);
    const auto counters = reg.counters();
    ASSERT_EQ(counters.size(), 3u);
    EXPECT_EQ(counters[0].first, "alpha");
    EXPECT_EQ(counters[1].first, "mid");
    EXPECT_EQ(counters[2].first, "zeta");
}

TEST(RegistryTest, ResetZeroesValuesKeepsRegistrations)
{
    Registry reg;
    Counter &c = reg.counter("c");
    Histogram &h = reg.histogram("h");
    c.add(5);
    h.record(100);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.snapshot().count, 0u);
    // Same addresses after reset: registrations survived.
    EXPECT_EQ(&reg.counter("c"), &c);
    EXPECT_EQ(&reg.histogram("h"), &h);
}

// ------------------------------------------------ histogram properties

TEST(HistogramTest, BucketBoundaries)
{
    // Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i).
    EXPECT_EQ(HistogramSnapshot::bucketOf(0), 0u);
    EXPECT_EQ(HistogramSnapshot::bucketOf(1), 1u);
    EXPECT_EQ(HistogramSnapshot::bucketOf(2), 2u);
    EXPECT_EQ(HistogramSnapshot::bucketOf(3), 2u);
    EXPECT_EQ(HistogramSnapshot::bucketOf(4), 3u);
    for (size_t k = 1; k < 64; ++k) {
        const uint64_t pow = uint64_t{1} << k;
        EXPECT_EQ(HistogramSnapshot::bucketOf(pow), k + 1) << "2^" << k;
        EXPECT_EQ(HistogramSnapshot::bucketOf(pow - 1), k)
            << "2^" << k << "-1";
    }
    EXPECT_EQ(HistogramSnapshot::bucketOf(UINT64_MAX), 64u);

    EXPECT_EQ(HistogramSnapshot::bucketUpperBound(0), 0u);
    EXPECT_EQ(HistogramSnapshot::bucketUpperBound(1), 1u);
    EXPECT_EQ(HistogramSnapshot::bucketUpperBound(2), 3u);
    EXPECT_EQ(HistogramSnapshot::bucketUpperBound(63),
              (uint64_t{1} << 63) - 1);
    EXPECT_EQ(HistogramSnapshot::bucketUpperBound(64), UINT64_MAX);

    // Every value must satisfy its own bucket's bounds.
    std::mt19937_64 rng(3);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t v = rng() >> (rng() % 64);
        const size_t b = HistogramSnapshot::bucketOf(v);
        ASSERT_LT(b, HistogramSnapshot::kBuckets);
        ASSERT_LE(v, HistogramSnapshot::bucketUpperBound(b));
        if (b > 0) {
            ASSERT_GT(v, HistogramSnapshot::bucketUpperBound(b - 1));
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
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(s.sum, sum);
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.max, 1000u);
    EXPECT_EQ(s.buckets[HistogramSnapshot::bucketOf(0)], 1u);
    EXPECT_EQ(s.buckets[HistogramSnapshot::bucketOf(1000)], 1u);

    h.reset();
    const HistogramSnapshot z = h.snapshot();
    EXPECT_EQ(z.count, 0u);
    EXPECT_EQ(z.sum, 0u);
    EXPECT_EQ(z.min, UINT64_MAX);
    EXPECT_EQ(z.max, 0u);
}

HistogramSnapshot
randomSnapshot(uint64_t seed, int n)
{
    Histogram h;
    std::mt19937_64 rng(seed);
    for (int i = 0; i < n; ++i)
        h.record(rng() >> (rng() % 64));
    return h.snapshot();
}

TEST(HistogramTest, QuantileIsMonotoneAndBounded)
{
    for (uint64_t seed : {4u, 5u, 6u}) {
        const HistogramSnapshot s = randomSnapshot(seed, 1000);
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
    EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0u); // empty

    Histogram h;
    h.record(42);
    const HistogramSnapshot one = h.snapshot();
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
    Histogram h;
    std::vector<uint64_t> samples;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t v = rng() >> (rng() % 64);
        h.record(v);
        samples.push_back(v);
    }
    const HistogramSnapshot s = h.snapshot();
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
