#include "core/harness.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/hash.hpp"
#include "common/logging.hpp"

namespace mimoarch {

uint64_t
digest(const RunSummary &s)
{
    Fnv64 h;
    h.f64(s.avgIpsErrorPct).f64(s.avgPowerErrorPct);
    h.u64(static_cast<uint64_t>(s.steadyEpochFreq))
        .u64(static_cast<uint64_t>(s.steadyEpochCache));
    h.f64(s.totalEnergyJ).f64(s.totalTimeS).f64(s.totalInstrB);
    h.u64(s.nonFiniteSkips);
    h.u64(s.health.tier).u64(s.health.sanitizedMeasurements)
        .u64(s.health.rejectedMeasurements).u64(s.health.estimatorResets)
        .u64(s.health.fallbackEntries).u64(s.health.safePins)
        .u64(s.health.repromotions).u64(s.health.watchdogTrips);
    return h.value();
}

uint64_t
digest(const EpochTrace &t)
{
    Fnv64 h;
    const auto doubles = [&h](const std::vector<double> &v) {
        h.u64(v.size());
        for (double x : v)
            h.f64(x);
    };
    const auto unsigneds = [&h](const std::vector<unsigned> &v) {
        h.u64(v.size());
        for (unsigned x : v)
            h.u64(x);
    };
    doubles(t.ips);
    doubles(t.power);
    doubles(t.trueIps);
    doubles(t.truePower);
    doubles(t.refIps);
    doubles(t.refPower);
    unsigneds(t.freqLevel);
    unsigneds(t.cacheSetting);
    unsigneds(t.robPartitions);
    unsigneds(t.tier);
    h.u64(t.health.tier).u64(t.health.sanitizedMeasurements)
        .u64(t.health.rejectedMeasurements).u64(t.health.estimatorResets)
        .u64(t.health.fallbackEntries).u64(t.health.safePins)
        .u64(t.health.repromotions).u64(t.health.watchdogTrips);
    return h.value();
}

EpochDriver::EpochDriver(Plant &plant, ArchController &controller,
                         const DriverConfig &config, QoeBatteryModel *qoe)
    : plant_(plant), controller_(controller), config_(config), qoe_(qoe)
{
    if (config_.epochs == 0)
        fatal("EpochDriver: zero epochs");
    telemetry::Registry &reg = telemetry::registry();
    const bool an = config_.fidelity == PlantFidelity::Analytic;
    tmEpochs_ = &reg.counter(an ? "loop.analytic.epochs" : "loop.epochs");
    tmKnobMoves_ = &reg.counter(
        an ? "loop.analytic.knob_moves" : "loop.knob_moves");
    tmNonfiniteSkips_ = &reg.counter(
        an ? "loop.analytic.nonfinite_skips" : "loop.nonfinite_skips");
    tmEpochNs_ = &reg.histogram(
        an ? "loop.analytic.epoch_ns" : "loop.epoch_ns");
    tmIpsErrBp_ = &reg.histogram(
        an ? "loop.analytic.ips_err_bp" : "loop.ips_err_bp");
    tmPowerErrBp_ = &reg.histogram(
        an ? "loop.analytic.power_err_bp" : "loop.power_err_bp");
}

namespace {

/**
 * Relative error as basis points for histogram bucketing. Non-finite
 * inputs (a corrupt sensor epoch) would be UB to cast, so they clamp
 * to the top bucket: "off scale", which is what they are.
 */
uint64_t
relErrorBasisPoints(double measured, double reference)
{
    const double rel = std::abs(measured - reference) / reference;
    constexpr double kCap = 1e12;
    if (!(rel < kCap)) // catches NaN and +inf too
        return static_cast<uint64_t>(kCap);
    return static_cast<uint64_t>(rel * 1e4);
}

} // namespace

long
EpochDriver::steadyEpoch(const std::vector<unsigned> &values,
                         unsigned tolerance)
{
    if (values.empty())
        return -1;
    const unsigned final_value = values.back();
    // Earliest epoch after which the setting stays within tolerance of
    // its final value.
    long steady = 0;
    for (size_t t = 0; t < values.size(); ++t) {
        const long diff = static_cast<long>(values[t]) -
            static_cast<long>(final_value);
        if (static_cast<unsigned>(std::abs(diff)) > tolerance)
            steady = static_cast<long>(t) + 1;
    }
    // Settling in the last tenth of the run counts as non-convergence.
    if (steady >
        static_cast<long>(values.size() - values.size() / 10)) {
        return -1;
    }
    return steady;
}

void
EpochDriver::begin(const KnobSettings &initial)
{
    trace_ = EpochTrace{};
    // One up-front reservation per recorded series keeps the epoch
    // loop free of reallocation (and of any heap traffic at all once
    // the controller workspaces are warm). finish() reads the two knob
    // series, so they are always recorded; the other eight only when
    // a caller asked for them.
    trace_.freqLevel.reserve(config_.epochs);
    trace_.cacheSetting.reserve(config_.epochs);
    if (config_.recordTrace) {
        trace_.ips.reserve(config_.epochs);
        trace_.power.reserve(config_.epochs);
        trace_.trueIps.reserve(config_.epochs);
        trace_.truePower.reserve(config_.epochs);
        trace_.refIps.reserve(config_.epochs);
        trace_.refPower.reserve(config_.epochs);
        trace_.robPartitions.reserve(config_.epochs);
        trace_.tier.reserve(config_.epochs);
    }
    controller_.initialize(initial);

    runSpan_.emplace("run", "loop", nullptr, "epochs",
                     static_cast<int64_t>(config_.epochs));

    // Warmup (the paper's fast-forward) at the initial settings.
    settings_ = initial;
    {
        telemetry::Span warmup_span("warmup", "loop");
        for (size_t i = 0; i < config_.warmupEpochs; ++i)
            plant_.step(settings_);
    }

    energy0_ = plant_.totalEnergyJoules();
    time0_ = plant_.elapsedSeconds();
    instr0_ = plant_.totalInstructionsB();

    opt_.reset();
    if (config_.useOptimizer)
        opt_ = std::make_unique<Optimizer>(controller_, config_.optimizer);
    phases_.emplace();

    errIps_ = 0.0;
    errPower_ = 0.0;
    errSamples_ = 0;
    nonfiniteSkips_ = 0;
    epoch_ = 0;
    lastTrueIps_ = 0.0;
    lastTruePower_ = 0.0;
}

void
EpochDriver::stepEpoch()
{
    const size_t t = epoch_;
    // Cooperative cancellation (attempt deadline / fail-fast abort):
    // a relaxed load per token up to the sweep's root, plus a clock
    // read under --job-timeout; numerically invisible to runs that
    // are never canceled.
    if (config_.cancel && config_.cancel->canceled()) {
        throw CanceledError("EpochDriver: canceled at epoch " +
                            std::to_string(t) + "/" +
                            std::to_string(config_.epochs));
    }
    // The latency and error histograms feed only the --telemetry
    // reports, so they record only while the trace buffer is armed;
    // a disarmed epoch pays for the counters alone.
    const bool armed = telemetry::trace().enabled();
    telemetry::Span epoch_span("epoch", "loop",
                               armed ? tmEpochNs_ : nullptr, "epoch",
                               static_cast<int64_t>(t));
    tmEpochs_->add(1);

    const Matrix &y = plant_.step(settings_);

    // What the hardware actually did: equals y unless a
    // fault-injecting plant corrupted the sensor path.
    const Matrix &true_out = plant_.lastTrueOutputs();
    const Matrix &y_true = true_out.empty() ? y : true_out;

    // Harden the loop against corrupt sensor epochs: a non-finite
    // IPS or power sample is counted and skipped — the settings are
    // held — instead of being propagated into the estimator.
    const bool y_finite = std::isfinite(y[kOutputIps]) &&
        std::isfinite(y[kOutputPower]);
    if (!y_finite) {
        if (nonfiniteSkips_ == 0) {
            warn("EpochDriver: non-finite sensor reading at epoch ",
                 t, "; holding settings (further skips counted "
                 "silently)");
        }
        ++nonfiniteSkips_;
        tmNonfiniteSkips_->add(1);
    }

    obs_.y = y;
    obs_.l2Mpki = plant_.lastL2Mpki();
    obs_.ipc = plant_.lastIpc();

    // Battery/QoE target schedule.
    if (qoe_) {
        if (qoe_->consumeEpoch(plant_.lastEnergyJoules())) {
            const Targets tg = qoe_->targets();
            controller_.setReference(tg.ips, tg.power);
        }
    }

    // Optimizer search management: the first epoch starts a search;
    // afterwards only a phase change triggers a new one (§V). The
    // detector observes every optimizer epoch, to advance its EWMA.
    if (opt_ && y_finite) {
        const bool phase_change = phases_->observe(obs_.ipc, obs_.l2Mpki);
        if (phase_change || t == 0)
            opt_->startSearch(y);
        opt_->observe(y);
    }

    if (y_finite) {
        const KnobSettings previous = settings_;
        settings_ = controller_.update(obs_);
        if (!(settings_ == previous))
            tmKnobMoves_->add(1);
    }

    // Tracking-error accounting against the *current* references,
    // scored on the true outputs (a controller chasing corrupted
    // readings must not be credited for tracking them).
    double ref_ips = 0.0, ref_power = 0.0;
    if (qoe_) {
        ref_ips = qoe_->targets().ips;
        ref_power = qoe_->targets().power;
    } else {
        std::tie(ref_ips, ref_power) = controller_.reference();
    }
    if (armed && ref_ips > 0 && ref_power > 0) {
        tmIpsErrBp_->record(
            relErrorBasisPoints(y_true[kOutputIps], ref_ips));
        tmPowerErrBp_->record(
            relErrorBasisPoints(y_true[kOutputPower], ref_power));
    }
    if (t >= config_.errorSkipEpochs && ref_ips > 0 &&
        ref_power > 0 && !config_.useOptimizer) {
        errIps_ += std::abs(y_true[kOutputIps] - ref_ips) / ref_ips;
        errPower_ +=
            std::abs(y_true[kOutputPower] - ref_power) / ref_power;
        ++errSamples_;
    }

    trace_.freqLevel.push_back(settings_.freqLevel);
    trace_.cacheSetting.push_back(settings_.cacheSetting);
    if (config_.recordTrace) {
        trace_.ips.push_back(y[kOutputIps]);
        trace_.power.push_back(y[kOutputPower]);
        trace_.trueIps.push_back(y_true[kOutputIps]);
        trace_.truePower.push_back(y_true[kOutputPower]);
        trace_.refIps.push_back(ref_ips);
        trace_.refPower.push_back(ref_power);
        trace_.robPartitions.push_back(settings_.robPartitions);
        trace_.tier.push_back(controller_.health().tier);
    }

    lastTrueIps_ = y_true[kOutputIps];
    lastTruePower_ = y_true[kOutputPower];
    ++epoch_;
}

RunSummary
EpochDriver::finish()
{
    RunSummary s;
    s.nonFiniteSkips = nonfiniteSkips_;
    s.health = controller_.health();
    trace_.health = s.health;
    if (errSamples_) {
        s.avgIpsErrorPct =
            100.0 * errIps_ / static_cast<double>(errSamples_);
        s.avgPowerErrorPct =
            100.0 * errPower_ / static_cast<double>(errSamples_);
    }
    s.steadyEpochFreq = steadyEpoch(trace_.freqLevel, 2);
    s.steadyEpochCache = steadyEpoch(trace_.cacheSetting, 1);
    s.totalEnergyJ = plant_.totalEnergyJoules() - energy0_;
    s.totalTimeS = plant_.elapsedSeconds() - time0_;
    s.totalInstrB = plant_.totalInstructionsB() - instr0_;
    opt_.reset();
    phases_.reset();
    runSpan_.reset();
    return s;
}

RunSummary
EpochDriver::run(const KnobSettings &initial)
{
    begin(initial);
    for (size_t t = 0; t < config_.epochs; ++t)
        stepEpoch();
    return finish();
}

} // namespace mimoarch
