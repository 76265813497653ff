/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (workload generators, excitation
 * waveforms, noise injection) draw from Rng so runs are reproducible from a
 * seed. The engine is xoshiro256** — fast, high quality, and stable across
 * platforms, unlike std::default_random_engine.
 */

#pragma once

#include <cmath>
#include <cstdint>

namespace mimoarch {

/** A small, fast, seedable PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a 64-bit seed; the state is expanded via splitmix64. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

    /** Reset the generator to the stream defined by @p seed. */
    void
    reseed(uint64_t seed)
    {
        // splitmix64 expansion so nearby seeds give unrelated streams.
        uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9E3779B97F4A7C15ull;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t
    uniformInt(uint64_t n)
    {
        // Lemire's nearly-divisionless bounded sampling.
        uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        auto lo = static_cast<uint64_t>(m);
        if (lo < n) {
            const uint64_t threshold = (0 - n) % n;
            while (lo < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * n;
                lo = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Bernoulli draw with probability @p p of true. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * Integer form of probability @p p for below(): uniform() < p holds
     * exactly when the draw's top 53 bits m satisfy m < threshold(p).
     * uniform() is m * 2^-53 with no rounding, so the bound is
     * ceil(p * 2^53), itself exact; p <= 0 and NaN give 0 (never true)
     * and p >= 1 gives 2^53 (always true).
     */
    static constexpr uint64_t
    threshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return uint64_t{1} << 53;
        const double scaled = p * 0x1.0p53;
        const auto whole = static_cast<uint64_t>(scaled);
        return static_cast<double>(whole) < scaled ? whole + 1 : whole;
    }

    /**
     * Bernoulli draw against a threshold(p): the same draw and the same
     * outcome as bernoulli(p), with no double arithmetic.
     */
    bool below(uint64_t threshold) { return (next() >> 11) < threshold; }

    /** Standard normal draw (Box–Muller, one value per call). */
    double
    normal()
    {
        if (haveSpare_) {
            haveSpare_ = false;
            return spare_;
        }
        double u1 = 0.0;
        while (u1 <= 1e-300)
            u1 = uniform();
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * 3.14159265358979323846 * u2;
        spare_ = r * std::sin(theta);
        haveSpare_ = true;
        return r * std::cos(theta);
    }

    /** Normal draw with the given mean and standard deviation. */
    double normal(double mean, double sigma) { return mean + sigma * normal(); }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4] = {};
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace mimoarch
