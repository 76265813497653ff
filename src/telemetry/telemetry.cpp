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

uint64_t
HistogramSnapshot::quantile(double q) const
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

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    for (const Shard &shard : shards_) {
        s.count += shard.count.load(std::memory_order_relaxed);
        s.sum += shard.sum.load(std::memory_order_relaxed);
        for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i)
            s.buckets[i] +=
                shard.buckets[i].load(std::memory_order_relaxed);
    }
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
}

void
Histogram::reset()
{
    for (Shard &shard : shards_) {
        for (auto &b : shard.buckets)
            b.store(0, std::memory_order_relaxed);
        shard.count.store(0, std::memory_order_relaxed);
        shard.sum.store(0, std::memory_order_relaxed);
    }
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------- registry

template <typename T>
T &
Registry::find(std::vector<Entry<T>> &entries, const std::string &name)
{
    for (Entry<T> &e : entries)
        if (e.name == name)
            return *e.metric;
    entries.push_back(Entry<T>{name, std::make_unique<T>()});
    return *entries.back().metric;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mutex_);
    return find(counters_, name);
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mutex_);
    return find(histograms_, name);
}

std::vector<std::pair<std::string, uint64_t>>
Registry::counters() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &e : counters_)
        out.emplace_back(e.name, e.metric->value());
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
Registry::histograms() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    out.reserve(histograms_.size());
    for (const auto &e : histograms_)
        out.emplace_back(e.name, e.metric->snapshot());
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return out;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lk(mutex_);
    for (auto &e : counters_)
        e.metric->reset();
    for (auto &e : histograms_)
        e.metric->reset();
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
