/**
 * @file
 * The traced run's instruments. They sit outside src/: TimedPlant and
 * TimedController wrap the public Plant and ArchController interfaces,
 * so EpochDriver and ChipInstance run unmodified and the wrapped loop
 * stays bit-identical to an unwrapped one (the benchmark checks this
 * by digest on every traced job).
 */

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/controllers.hpp"
#include "core/plant.hpp"

namespace loopbench {

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Spans kept in memory and written as a Chrome trace when the run
 * ends. Bounded: once full, further spans are counted, not stored, so
 * a long analytic run keeps its first epochs in full detail without
 * growing the process.
 */
class SpanLog
{
  public:
    explicit SpanLog(size_t capacity) { spans_.reserve(capacity); }

    /** @p name must outlive the log (a string literal). */
    void
    add(const char *name, uint64_t start_ns, uint64_t end_ns, uint64_t job)
    {
        if (spans_.size() == spans_.capacity()) {
            ++dropped_;
            return;
        }
        spans_.push_back({name, start_ns, end_ns, job});
    }

    size_t kept() const { return spans_.size(); }
    uint64_t dropped() const { return dropped_; }

    /** Chrome trace-event JSON; one track per job, spans nest by time. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                         s.name, static_cast<unsigned long long>(s.job),
                         static_cast<double>(s.start - t0) / 1e3,
                         static_cast<double>(s.end - s.start) / 1e3,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "], \"droppedSpans\": %llu}\n",
                     static_cast<unsigned long long>(dropped_));
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        const char *name;
        uint64_t start;
        uint64_t end;
        uint64_t job;
    };
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
};

/**
 * Log-linear latency histogram: exact below 64 ns, then 32 buckets
 * per power of two (quantiles within 1/32 relative).
 */
class LatencyHistogram
{
  public:
    void
    record(uint64_t ns)
    {
        ++buckets_[index(ns)];
        ++count_;
    }

    uint64_t count() const { return count_; }

    /** Lower edge of the bucket holding quantile @p q, in ns. */
    double
    quantileNs(double q) const
    {
        if (count_ == 0)
            return 0.0;
        const double rank = q * static_cast<double>(count_ - 1);
        uint64_t seen = 0;
        for (size_t i = 0; i < buckets_.size(); ++i) {
            seen += buckets_[i];
            if (static_cast<double>(seen) > rank)
                return lowerEdge(i);
        }
        return lowerEdge(buckets_.size() - 1);
    }

  private:
    static constexpr size_t kLinear = 64;
    static constexpr size_t kSub = 32;

    static size_t
    index(uint64_t ns)
    {
        if (ns < kLinear)
            return static_cast<size_t>(ns);
        const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(ns));
        const size_t mant = static_cast<size_t>(ns >> (e - 5)) & (kSub - 1);
        return kLinear + (e - 6) * kSub + mant;
    }

    static double
    lowerEdge(size_t i)
    {
        if (i < kLinear)
            return static_cast<double>(i);
        const size_t e = (i - kLinear) / kSub + 6;
        const size_t mant = (i - kLinear) % kSub;
        return static_cast<double>((kSub + mant) << (e - 5));
    }

    std::array<uint64_t, kLinear + 58 * kSub> buckets_{};
    uint64_t count_ = 0;
};

/** Busy time and call counts at one layer boundary. */
struct LayerTime
{
    uint64_t ns = 0;
    uint64_t calls = 0;
};

/**
 * Marks epoch starts from a plant's step calls, for loops the
 * benchmark cannot step itself (ChipInstance::run). After @p skip
 * warm-up steps, the interval between consecutive steps of one core
 * is one lock-step epoch.
 */
struct EpochClock
{
    size_t skip = 0;
    LatencyHistogram *hist = nullptr;
    size_t seen = 0;
    uint64_t last = 0;

    void
    mark(uint64_t t)
    {
        if (seen > skip)
            hist->record(t - last);
        last = t;
        ++seen;
    }
};

/** Times Plant::step; forwards everything else. Owns the real plant. */
class TimedPlant final : public mimoarch::Plant
{
  public:
    TimedPlant(std::unique_ptr<mimoarch::Plant> inner, LayerTime &time,
               SpanLog &spans, uint64_t job, EpochClock *clock = nullptr)
        : inner_(std::move(inner)), time_(time), spans_(spans), job_(job),
          clock_(clock)
    {}

    const mimoarch::KnobSpace &knobs() const override
    {
        return inner_->knobs();
    }

    const mimoarch::Matrix &
    step(const mimoarch::KnobSettings &settings) override
    {
        const uint64_t t0 = nowNs();
        const mimoarch::Matrix &y = inner_->step(settings);
        const uint64_t t1 = nowNs();
        time_.ns += t1 - t0;
        ++time_.calls;
        spans_.add("plant.step", t0, t1, job_);
        if (clock_)
            clock_->mark(t0);
        return y;
    }

    mimoarch::KnobSettings currentSettings() const override
    {
        return inner_->currentSettings();
    }
    const mimoarch::Matrix &lastTrueOutputs() const override
    {
        return inner_->lastTrueOutputs();
    }
    void setL2Partition(uint32_t way_mask) override
    {
        inner_->setL2Partition(way_mask);
    }
    double lastL2Mpki() const override { return inner_->lastL2Mpki(); }
    double lastIpc() const override { return inner_->lastIpc(); }
    double lastEnergyJoules() const override
    {
        return inner_->lastEnergyJoules();
    }
    double totalEnergyJoules() const override
    {
        return inner_->totalEnergyJoules();
    }
    double elapsedSeconds() const override
    {
        return inner_->elapsedSeconds();
    }
    double totalInstructionsB() const override
    {
        return inner_->totalInstructionsB();
    }

    mimoarch::Plant &inner() { return *inner_; }

  private:
    std::unique_ptr<mimoarch::Plant> inner_;
    LayerTime &time_;
    SpanLog &spans_;
    uint64_t job_;
    EpochClock *clock_;
};

/** Times ArchController::update; forwards everything else. */
class TimedController final : public mimoarch::ArchController
{
  public:
    TimedController(std::unique_ptr<mimoarch::ArchController> inner,
                    LayerTime &time, SpanLog &spans, uint64_t job)
        : inner_(std::move(inner)), time_(time), spans_(spans), job_(job)
    {}

    mimoarch::KnobSettings
    update(const mimoarch::Observation &obs) override
    {
        const uint64_t t0 = nowNs();
        const mimoarch::KnobSettings next = inner_->update(obs);
        const uint64_t t1 = nowNs();
        time_.ns += t1 - t0;
        ++time_.calls;
        spans_.add("control.update", t0, t1, job_);
        return next;
    }

    void setReference(double ips0, double power0) override
    {
        inner_->setReference(ips0, power0);
    }
    std::pair<double, double> reference() const override
    {
        return inner_->reference();
    }
    void initialize(const mimoarch::KnobSettings &initial) override
    {
        inner_->initialize(initial);
    }
    std::string name() const override { return inner_->name(); }
    mimoarch::ControllerHealth health() const override
    {
        return inner_->health();
    }

  private:
    std::unique_ptr<mimoarch::ArchController> inner_;
    LayerTime &time_;
    SpanLog &spans_;
    uint64_t job_;
};

} // namespace loopbench
