/**
 * @file
 * Epoch-granular telemetry: metrics, spans, and trace events for the
 * control loop, the supervisor ladder, and the sweep engine.
 *
 * Design constraints (see DESIGN.md §10):
 *
 *   - Metrics are plain values with one owner. A component counts in
 *     its own fields and publishes the totals to the registry once per
 *     run, sweep or object lifetime, never once per epoch, so the
 *     epoch loop writes no memory another thread writes.
 *   - Allocation-free in steady state. A component publishes zeros
 *     when it is constructed, which registers its names (that
 *     allocates); its later publishes only look the names up. The
 *     trace buffer reserves its slots once at start() and fills them
 *     as events are recorded; a full buffer drops events and counts
 *     the drops instead of growing.
 *   - Cheap when disarmed. A Span with no latency histogram skips the
 *     clock while the trace buffer is disarmed, and the epoch loop
 *     feeds its per-epoch histograms only while the buffer is armed
 *     (the --telemetry runs that export them).
 *   - Off the numeric path. Telemetry only *observes*: no clock
 *     reading or metric value ever feeds back into the controller, so
 *     golden digests and sweep checksums are identical with the trace
 *     armed or disarmed.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace mimoarch::telemetry {

/** Nanoseconds since the first call in this process (steady clock). */
uint64_t nowNs();

/** Small dense id for the calling thread (0, 1, 2, ... per process). */
uint32_t threadId();

// ----------------------------------------------------------- metrics

/**
 * Fixed-bucket log-scale histogram of non-negative integer samples
 * (latencies in ns, error magnitudes in basis points). A plain value:
 * its owner records into it and publishes it with Registry::merge.
 */
struct Histogram
{
    /**
     * Bucket i counts values whose bit width is i: bucket 0 holds
     * exactly 0, bucket i (i >= 1) holds [2^(i-1), 2^i). Log-scale
     * with fixed boundaries.
     */
    static constexpr size_t kBuckets = 65;

    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = UINT64_MAX; //!< UINT64_MAX when empty.
    uint64_t max = 0;
    uint64_t buckets[kBuckets] = {};

    void
    record(uint64_t v)
    {
        ++buckets[bucketOf(v)];
        ++count;
        sum += v;
        min = std::min(min, v);
        max = std::max(max, v);
    }

    /** Add @p other's samples: counts, sums and buckets add, and the
     *  extremes widen. */
    void merge(const Histogram &other);

    /** Bucket index for @p v (== std::bit_width). */
    static size_t
    bucketOf(uint64_t v)
    {
        return static_cast<size_t>(std::bit_width(v));
    }

    /** Largest value bucket @p i can hold (2^i - 1; 0 for bucket 0). */
    static uint64_t
    bucketUpperBound(size_t i)
    {
        return i == 0 ? 0
                      : (i >= 64 ? UINT64_MAX : (uint64_t{1} << i) - 1);
    }

    /**
     * Upper-bound estimate of the @p q quantile (q in [0, 1]): the
     * upper bound of the first bucket whose cumulative count reaches
     * ceil(q * count), clamped into [min, max]. Monotone in q; returns
     * 0 when empty.
     */
    uint64_t quantile(double q) const;
};

// ---------------------------------------------------------- registry

/**
 * Named metric totals. Owners publish into it: add() sums a count into
 * a counter, merge() a histogram into a histogram, each creating the
 * name on first use (which allocates) and otherwise only looking it
 * up. Both take the registry's mutex, as do the copies the exporters
 * read.
 */
class Registry
{
  public:
    using Counters = std::map<std::string, uint64_t, std::less<>>;
    using Histograms = std::map<std::string, Histogram, std::less<>>;

    void add(std::string_view name, uint64_t n);
    void merge(std::string_view name, const Histogram &histogram);

    /** Name-sorted copies for the exporters. */
    Counters counters() const;
    Histograms histograms() const;

  private:
    mutable std::mutex mutex_;
    Counters counters_;
    Histograms histograms_;
};

/** The process-wide registry every instrumented component publishes to. */
Registry &registry();

// ------------------------------------------------------------- trace

/** Chrome-trace event kinds we emit ("ph" values "X" and "i"). */
enum class EventType : uint8_t { Complete, Instant };

/**
 * One trace event. Names and categories are NOT owned: pass string
 * literals (or otherwise immortal strings) only, so recording never
 * copies or allocates. No member initialisers: the buffer's slots
 * stay unwritten (and so not resident) until an event fills them,
 * and complete() / instant() set every field.
 */
struct TraceEvent
{
    const char *name;
    const char *category;
    const char *argKey; //!< Optional numeric argument (null = none).
    int64_t argValue;
    uint64_t tsNs;
    uint64_t durNs; //!< 0 for instants.
    uint32_t tid;
    EventType type;
};

/**
 * Fixed-capacity event sink. start(capacity) reserves the whole
 * buffer once, uninitialised, so resident memory grows with the
 * events recorded, not the capacity; record() claims a slot with one
 * fetch_add and writes in place, so concurrent recorders never
 * contend on a lock or touch the heap. When the buffer is full
 * further events are dropped (and counted) rather than grown. Read
 * the events only after the writers have quiesced (after their
 * threads have joined).
 */
class TraceBuffer
{
  public:
    /** Arm the buffer: reserve @p capacity slots and start recording. */
    void start(size_t capacity);

    /** Stop recording (events and drop count are kept for export). */
    void stop();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    complete(const char *name, const char *category, uint64_t ts_ns,
             uint64_t dur_ns, const char *arg_key = nullptr,
             int64_t arg_value = 0)
    {
        TraceEvent e;
        e.name = name;
        e.category = category;
        e.argKey = arg_key;
        e.argValue = arg_value;
        e.tsNs = ts_ns;
        e.durNs = dur_ns;
        e.tid = threadId();
        e.type = EventType::Complete;
        record(e);
    }

    void
    instant(const char *name, const char *category, uint64_t ts_ns,
            const char *arg_key = nullptr, int64_t arg_value = 0)
    {
        TraceEvent e;
        e.name = name;
        e.category = category;
        e.argKey = arg_key;
        e.argValue = arg_value;
        e.tsNs = ts_ns;
        e.durNs = 0;
        e.tid = threadId();
        e.type = EventType::Instant;
        record(e);
    }

    /** Events recorded so far (valid once writers are quiet). */
    size_t size() const;
    const TraceEvent &operator[](size_t i) const { return events_[i]; }

    uint64_t
    dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Drop all events and the drop count; keeps capacity and state. */
    void clear();

  private:
    void record(const TraceEvent &e);

    std::unique_ptr<TraceEvent[]> events_;
    size_t capacity_ = 0;
    std::atomic<size_t> next_{0};
    std::atomic<uint64_t> dropped_{0};
    std::atomic<bool> enabled_{false};
};

/** The process-wide trace buffer (disarmed until start()). */
TraceBuffer &trace();

/**
 * RAII stage timer: measures construction-to-destruction, records the
 * duration into an optional histogram its caller owns, and emits a
 * Complete trace event when the global trace buffer is armed. When
 * neither sink is active the constructor skips the clock read
 * entirely.
 */
class Span
{
  public:
    Span(const char *name, const char *category,
         Histogram *latency = nullptr, const char *arg_key = nullptr,
         int64_t arg_value = 0)
        : name_(name), category_(category), latency_(latency),
          argKey_(arg_key), argValue_(arg_value),
          tracing_(trace().enabled()),
          t0_(tracing_ || latency ? nowNs() : 0)
    {}

    ~Span()
    {
        if (!tracing_ && latency_ == nullptr)
            return;
        const uint64_t dur = nowNs() - t0_;
        if (latency_ != nullptr)
            latency_->record(dur);
        if (tracing_)
            trace().complete(name_, category_, t0_, dur, argKey_,
                             argValue_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    const char *category_;
    Histogram *latency_;
    const char *argKey_;
    int64_t argValue_;
    bool tracing_;
    uint64_t t0_;
};

} // namespace mimoarch::telemetry
