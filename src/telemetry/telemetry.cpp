#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hpp"

namespace mimoarch::telemetry {

uint64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    // Anchor at the first call so timestamps are small and the Chrome
    // trace starts near t=0.
    static const clock::time_point t0 = clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             t0)
            .count());
}

uint32_t
threadId()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

// ----------------------------------------------------------- metrics

void
Histogram::merge(const Histogram &other)
{
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    for (size_t i = 0; i < kBuckets; ++i)
        buckets[i] += other.buckets[i];
}

uint64_t
Histogram::quantile(double q) const
{
    if (count == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // ceil(q * count) with a floor of one sample.
    uint64_t target = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    target = std::max<uint64_t>(target, 1);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        cumulative += buckets[i];
        if (cumulative >= target) {
            // Clamping into [min, max] tightens the edge buckets
            // without breaking monotonicity (clamp is monotone).
            return std::clamp(bucketUpperBound(i), min, max);
        }
    }
    return max;
}

// ---------------------------------------------------------- registry

namespace {

/** @p map's entry for @p name, created on first use. */
template <typename Map>
typename Map::mapped_type &
entry(Map &map, std::string_view name)
{
    const auto it = map.find(name);
    if (it != map.end())
        return it->second;
    return map.emplace(std::string(name), typename Map::mapped_type{})
        .first->second;
}

} // namespace

void
Registry::add(std::string_view name, uint64_t n)
{
    std::lock_guard<std::mutex> lk(mutex_);
    entry(counters_, name) += n;
}

void
Registry::merge(std::string_view name, const Histogram &histogram)
{
    std::lock_guard<std::mutex> lk(mutex_);
    entry(histograms_, name).merge(histogram);
}

Registry::Counters
Registry::counters() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return counters_;
}

Registry::Histograms
Registry::histograms() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return histograms_;
}

Registry &
registry()
{
    static Registry r;
    return r;
}

// ------------------------------------------------------------- trace

void
TraceBuffer::start(size_t capacity)
{
    if (capacity == 0)
        fatal("TraceBuffer::start: capacity must be positive");
    if (enabled_.load(std::memory_order_relaxed))
        fatal("TraceBuffer::start: already recording");
    events_ = std::make_unique_for_overwrite<TraceEvent[]>(capacity);
    capacity_ = capacity;
    next_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_release);
}

void
TraceBuffer::stop()
{
    enabled_.store(false, std::memory_order_release);
}

size_t
TraceBuffer::size() const
{
    return std::min(next_.load(std::memory_order_acquire), capacity_);
}

void
TraceBuffer::clear()
{
    next_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
}

void
TraceBuffer::record(const TraceEvent &e)
{
    if (!enabled_.load(std::memory_order_relaxed))
        return;
    // One fetch_add claims a private slot; concurrent recorders never
    // share one. Overflow claims are counted as drops (next_ keeps
    // growing past capacity, which is fine: size() clamps).
    const size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= capacity_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    events_[slot] = e;
}

TraceBuffer &
trace()
{
    static TraceBuffer t;
    return t;
}

} // namespace mimoarch::telemetry
