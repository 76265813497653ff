/**
 * @file
 * Set-associative cache with LRU replacement, write-back/write-allocate
 * policy, and way power-gating (the paper's cache-size knob).
 *
 * Gating ways shrinks the usable associativity: lines in disabled ways are
 * flushed (dirty ones counted as writebacks) and lookups only consider the
 * enabled ways. This mirrors Ivy-Bridge-style LLC way gating (paper §IX).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.hpp"

namespace mimoarch {

/** Static geometry of one cache. */
struct CacheConfig
{
    uint32_t sizeBytes = 32 * 1024;
    uint32_t ways = 4;
    uint32_t lineBytes = 64;

    uint32_t
    sets() const
    {
        return sizeBytes / (ways * lineBytes);
    }
};

/** Cache access statistics (cumulative; snapshot per epoch upstream). */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;
    uint64_t gatingFlushes = 0; //!< Lines flushed by way gating.

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
            static_cast<double>(accesses) : 0.0;
    }
};

/** One set-associative cache level. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up @p addr; on a miss the line is filled (possibly evicting).
     * @param is_write marks the line dirty on a hit or after fill.
     * @return true on hit.
     */
    bool access(uint64_t addr, bool is_write);

    /** Probe without side effects. */
    bool contains(uint64_t addr) const;

    /**
     * Prefetch: insert the line for @p addr if absent (clean), without
     * touching the access/miss statistics. Used by the sequential
     * instruction prefetcher.
     */
    void prefetch(uint64_t addr);

    /**
     * Restrict lookups to the first @p ways ways, flushing lines in the
     * disabled ways. @return the number of dirty lines written back.
     */
    uint64_t setEnabledWays(uint32_t ways);

    /**
     * Restrict lookups to the ways whose bit is set in @p mask (bit w =
     * way w), flushing lines in ways being disabled. This is the
     * chip-level partitioning primitive: a core confined to a way mask
     * never observes lines outside it, so disjoint masks give strict
     * isolation within one shared geometry. A prefix mask (low n bits)
     * is bit-identical to setEnabledWays(n). @return dirty lines
     * written back.
     */
    uint64_t setEnabledWayMask(uint32_t mask);

    uint32_t enabledWays() const { return enabledWays_; }

    /** Effective capacity given the enabled ways. */
    uint32_t
    effectiveSizeBytes() const
    {
        return config_.sets() * enabledWays_ * config_.lineBytes;
    }

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }

    /** Drop all lines and zero the statistics. */
    void reset();

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint32_t lru = 0; //!< Higher = more recently used.
        bool valid = false;
        bool dirty = false;
    };

    Line &line(uint32_t set, uint32_t way) { return lines_[set * config_.ways + way]; }
    const Line &
    line(uint32_t set, uint32_t way) const
    {
        return lines_[set * config_.ways + way];
    }

    // lineBytes and sets() are both verified powers of two at
    // construction, so the index/tag divisions reduce to shifts.
    uint32_t
    setIndex(uint64_t addr) const
    {
        return static_cast<uint32_t>((addr >> lineShift_) & setMask_);
    }

    uint64_t tagOf(uint64_t addr) const { return addr >> tagShift_; }

    CacheConfig config_;
    uint32_t enabledWays_;
    uint32_t wayMask_; //!< Bit w set = way w enabled; popcount == enabledWays_.
    uint32_t lruClock_ = 0;
    uint32_t lineShift_ = 0; //!< log2(lineBytes).
    uint32_t setMask_ = 0;   //!< sets() - 1.
    uint32_t tagShift_ = 0;  //!< log2(lineBytes * sets()).
    std::vector<Line> lines_;
    CacheStats stats_;
};

} // namespace mimoarch
