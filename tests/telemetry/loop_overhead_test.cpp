/**
 * @file
 * The epoch loop's instrumentation (EpochDriver::stepEpoch):
 *
 *   - what it records: the loop counters on every epoch, the latency
 *     and error histograms and the per-epoch trace events only while
 *     the trace buffer is armed;
 *   - that it only observes: an armed and a disarmed run digest equal;
 *   - the cycle-level plant's stream counters: one rewind per phase
 *     boundary, and waits only when the ring ran empty;
 *   - a wall-clock guard that arming stays cheap. It times the loop on
 *     a constant stub plant and a hold-still controller, so the epoch
 *     is little more than the harness and its instrumentation. It only
 *     exists to catch a regression that puts a lock, allocation, or
 *     syscall on the per-epoch path; bench/micro_overhead measures what
 *     each primitive costs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "core/controllers.hpp"
#include "core/harness.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

/** Plant whose outputs never change: the cheapest possible epoch. */
class ConstantPlant : public Plant
{
  public:
    const KnobSpace &knobs() const override { return knobs_; }

    const Matrix &
    step(const KnobSettings &settings) override
    {
        settings_ = settings;
        ++epochs_;
        return y_;
    }

    KnobSettings currentSettings() const override { return settings_; }
    double lastL2Mpki() const override { return 1.0; }
    double lastIpc() const override { return 1.0; }
    double lastEnergyJoules() const override { return 1e-4; }

    double
    totalEnergyJoules() const override
    {
        return 1e-4 * static_cast<double>(epochs_);
    }

    double
    elapsedSeconds() const override
    {
        return 50e-6 * static_cast<double>(epochs_);
    }

    double
    totalInstructionsB() const override
    {
        return 1e-4 * static_cast<double>(epochs_);
    }

  private:
    KnobSpace knobs_{false};
    Matrix y_ = Matrix::vector({2.0, 1.5});
    KnobSettings settings_{};
    size_t epochs_ = 0;
};

/** Holds its settings and reports a positive reference, so every
 *  epoch scores (and, armed, records) a tracking error. */
class HoldingController : public ArchController
{
  public:
    KnobSettings update(const Observation &) override { return settings_; }

    void
    setReference(double ips0, double power0) override
    {
        ref_ = {ips0, power0};
    }

    std::pair<double, double> reference() const override { return ref_; }

    void
    initialize(const KnobSettings &initial) override
    {
        settings_ = initial;
    }

    std::string name() const override { return "Holding"; }

  private:
    KnobSettings settings_{};
    std::pair<double, double> ref_{2.2, 1.4};
};

/** Wall seconds for one stub-plant run of @p epochs epochs. */
double
stubLoopSeconds(size_t epochs)
{
    ConstantPlant plant;
    HoldingController ctrl;
    DriverConfig dcfg;
    dcfg.epochs = epochs;
    EpochDriver driver(plant, ctrl, dcfg);
    const auto t0 = std::chrono::steady_clock::now();
    (void)driver.run(KnobSettings{});
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The loop metrics one cycle-level driver records into. */
struct LoopCounts
{
    uint64_t epochs = 0;
    uint64_t epochNs = 0;
    uint64_t ipsErr = 0;
    uint64_t powerErr = 0;
};

LoopCounts
loopCounts()
{
    telemetry::Registry &reg = telemetry::registry();
    LoopCounts c;
    c.epochs = reg.counter("loop.epochs").value();
    c.epochNs = reg.histogram("loop.epoch_ns").snapshot().count;
    c.ipsErr = reg.histogram("loop.ips_err_bp").snapshot().count;
    c.powerErr = reg.histogram("loop.power_err_bp").snapshot().count;
    return c;
}

size_t
epochEvents()
{
    const telemetry::TraceBuffer &buf = telemetry::trace();
    size_t n = 0;
    for (size_t i = 0; i < buf.size(); ++i) {
        if (std::strcmp(buf[i].name, "epoch") == 0)
            ++n;
    }
    return n;
}

constexpr size_t kStubEpochs = 1000;

TEST(EpochInstrumentation, DisarmedRunCountsEpochsButSkipsHistograms)
{
    ASSERT_FALSE(telemetry::trace().enabled());
    const LoopCounts before = loopCounts();
    (void)stubLoopSeconds(kStubEpochs);
    const LoopCounts after = loopCounts();
    EXPECT_EQ(after.epochs - before.epochs, kStubEpochs);
    EXPECT_EQ(after.epochNs, before.epochNs);
    EXPECT_EQ(after.ipsErr, before.ipsErr);
    EXPECT_EQ(after.powerErr, before.powerErr);
}

TEST(EpochInstrumentation, ArmedRunRecordsEveryEpoch)
{
    ASSERT_FALSE(telemetry::trace().enabled());
    telemetry::trace().start(size_t{1} << 12);
    const LoopCounts before = loopCounts();
    (void)stubLoopSeconds(kStubEpochs);
    const LoopCounts after = loopCounts();
    telemetry::trace().stop();
    EXPECT_EQ(after.epochs - before.epochs, kStubEpochs);
    EXPECT_EQ(after.epochNs - before.epochNs, kStubEpochs);
    EXPECT_EQ(after.ipsErr - before.ipsErr, kStubEpochs);
    EXPECT_EQ(after.powerErr - before.powerErr, kStubEpochs);
    EXPECT_EQ(telemetry::trace().dropped(), 0u);
    EXPECT_EQ(epochEvents(), kStubEpochs);
    telemetry::trace().clear();
}

constexpr size_t kSimEpochs = 200;

/** Digests of one short cycle-level run under the holding controller. */
std::pair<uint64_t, uint64_t>
simPlantDigests()
{
    SimPlant plant(Spec2006Suite::byName("namd"), KnobSpace(false));
    HoldingController ctrl;
    DriverConfig dcfg;
    dcfg.epochs = kSimEpochs;
    dcfg.recordTrace = true;
    EpochDriver driver(plant, ctrl, dcfg);
    const RunSummary s = driver.run(KnobSettings{});
    return {digest(s), digest(driver.trace())};
}

TEST(EpochInstrumentation, ArmingLeavesSimPlantDigestsUnchanged)
{
    ASSERT_FALSE(telemetry::trace().enabled());
    const auto disarmed = simPlantDigests();
    telemetry::trace().start(size_t{1} << 12);
    const auto armed = simPlantDigests();
    telemetry::trace().stop();
    EXPECT_EQ(epochEvents(), kSimEpochs);
    telemetry::trace().clear();
    EXPECT_EQ(armed.first, disarmed.first) << "digest(RunSummary)";
    EXPECT_EQ(armed.second, disarmed.second) << "digest(EpochTrace)";
}

TEST(EpochInstrumentation, SimPlantCountsStreamWaitsAndRewinds)
{
    // Phases of 50 epochs: 200 epochs end four of them, and each phase
    // boundary rewinds the plant's run-ahead stream once.
    AppSpec app = Spec2006Suite::byName("namd");
    for (PhaseSpec &p : app.phases)
        p.lengthEpochs = 50;
    telemetry::Registry &reg = telemetry::registry();
    const uint64_t waits0 = reg.counter("stream.waits").value();
    const uint64_t wait_ns0 = reg.counter("stream.wait_ns").value();
    const uint64_t rewinds0 = reg.counter("stream.rewinds").value();
    SimPlant plant(app, KnobSpace(false));
    for (int i = 0; i < 200; ++i)
        (void)plant.step(KnobSettings{});
    const uint64_t waits = reg.counter("stream.waits").value() - waits0;
    const uint64_t wait_ns =
        reg.counter("stream.wait_ns").value() - wait_ns0;
    EXPECT_EQ(reg.counter("stream.rewinds").value() - rewinds0, 4u);
    // At most one wait per chunk the core took, each at least 1 ns long.
    const uint64_t ops = plant.processor().core().counters().fetched;
    EXPECT_LE(waits, ops / RunAheadStream::kChunkOps + 5);
    EXPECT_GE(wait_ns, waits);
    EXPECT_EQ(waits == 0, wait_ns == 0);
    // The metrics sidecar of a --telemetry run carries all three.
    const std::string metrics = telemetry::renderMetricsJson(reg);
    for (const char *name :
         {"\"stream.waits\"", "\"stream.wait_ns\"", "\"stream.rewinds\""})
        EXPECT_NE(metrics.find(name), std::string::npos) << name;
}

TEST(TelemetryOverhead, ArmedEpochLoopStaysWithinTheBudget)
{
    ASSERT_FALSE(telemetry::trace().enabled());
    constexpr size_t kEpochs = 200000;
    stubLoopSeconds(kEpochs / 10); // Warm the code paths once.

    const double off_s = stubLoopSeconds(kEpochs);

    telemetry::trace().start(size_t{1} << 18);
    const double on_s = stubLoopSeconds(kEpochs);
    telemetry::trace().stop();
    telemetry::trace().clear();

    // Generous: 4x the disarmed loop plus 250 ms of absolute slack so
    // a loaded CI machine cannot flake this.
    EXPECT_LT(on_s, 4.0 * off_s + 0.25)
        << "telemetry-armed loop took " << on_s << " s vs " << off_s
        << " s disarmed over " << kEpochs << " epochs";
}

} // namespace
} // namespace mimoarch
