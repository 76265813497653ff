#include "robustness/supervisor.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "telemetry/telemetry.hpp"

namespace mimoarch {

// ------------------------------------------------------ LoopSupervisor

LoopSupervisor::LoopSupervisor(const LoopSupervisorConfig &config)
    : config_(config), probationTarget_(config.probationEpochs)
{
    if (config_.innovationWindow == 0 || config_.trackingWindow == 0 ||
        config_.probationEpochs == 0) {
        fatal("LoopSupervisor: windows must be positive");
    }
}

void
LoopSupervisor::reset()
{
    tier_ = DegradationTier::Nominal;
    innovationStreak_ = trackingStreak_ = healthyStreak_ = 0;
    stuckStreak_ = 0;
    epochsSinceReset_ = recentResets_ = 0;
    probationTarget_ = config_.probationEpochs;
    estimatorResets_ = fallbackEntries_ = safePins_ = repromotions_ = 0;
}

void
LoopSupervisor::demote(SupervisorDecision &d, DegradationTier to)
{
    tier_ = to;
    if (to == DegradationTier::Fallback) {
        ++fallbackEntries_;
        d.enteredFallback = true;
    } else if (to == DegradationTier::SafePin) {
        ++safePins_;
    }
    // Each demotion lengthens the next probation: a fault that keeps
    // coming back earns longer and longer quarantines.
    probationTarget_ = static_cast<unsigned>(
        std::min<double>(config_.probationMax,
                         probationTarget_ * config_.probationBackoff));
    trackingStreak_ = 0;
    healthyStreak_ = 0;
}

SupervisorDecision
LoopSupervisor::evaluate(const SupervisorSignals &s)
{
    SupervisorDecision d;

    // Forget old resets so a months-long run does not accumulate its
    // way into a permanent fallback.
    if (++epochsSinceReset_ > config_.resetMemory)
        recentResets_ = 0;

    // Streak accounting.
    if (s.innovationNorm > config_.innovationLimit)
        ++innovationStreak_;
    else
        innovationStreak_ = 0;
    if (s.relTrackingError > config_.trackingErrorLimit)
        ++trackingStreak_;
    else
        trackingStreak_ = 0;
    if (s.sensorStuck)
        ++stuckStreak_;
    else
        stuckStreak_ = 0;
    // In SafePin the loop is open, so tracking error reflects the
    // pinned configuration rather than loop health; its probation
    // clock is kept by the SafePin branch below instead.
    if (tier_ != DegradationTier::SafePin) {
        const bool healthy = s.relTrackingError < config_.healthyErrorLimit &&
                             !s.sensorStuck && s.stateFinite;
        if (healthy)
            ++healthyStreak_;
        else
            healthyStreak_ = 0;
    }

    const auto request_reset = [&] {
        if (recentResets_ >= config_.maxResets) {
            // Resetting is not curing it; stop trusting the model.
            demote(d, DegradationTier::Fallback);
            return;
        }
        d.resetEstimator = true;
        ++estimatorResets_;
        ++recentResets_;
        epochsSinceReset_ = 0;
        innovationStreak_ = 0;
        trackingStreak_ = 0;
        tier_ = DegradationTier::Reset;
    };

    switch (tier_) {
      case DegradationTier::Nominal:
      case DegradationTier::Reset: {
        // Non-finite internal state is beyond repair *now*; a reset is
        // the only action that can help, and it must not wait for a
        // streak.
        if (!s.stateFinite) {
            request_reset();
            break;
        }
        if (innovationStreak_ >= config_.innovationWindow) {
            request_reset();
            break;
        }
        // A sensor frozen well past any transient episode starves the
        // estimator of information; no reset can fix that, so hand the
        // loop to the model-free fallback directly.
        if (stuckStreak_ >= config_.stuckWindow) {
            demote(d, DegradationTier::Fallback);
            stuckStreak_ = 0;
            break;
        }
        if (trackingStreak_ >= config_.trackingWindow) {
            if (tier_ == DegradationTier::Nominal) {
                // First response to runaway: a fresh estimator.
                request_reset();
            } else {
                // Already tried that; hand the loop to the fallback.
                demote(d, DegradationTier::Fallback);
            }
            break;
        }
        // A Reset tier self-clears once the loop looks sane again.
        if (tier_ == DegradationTier::Reset &&
            healthyStreak_ >= config_.innovationWindow) {
            tier_ = DegradationTier::Nominal;
        }
        break;
      }
      case DegradationTier::Fallback: {
        if (trackingStreak_ >= config_.trackingWindow) {
            // Even the model-free fallback cannot hold the targets:
            // stop actuating on corrupt information entirely.
            demote(d, DegradationTier::SafePin);
            break;
        }
        if (healthyStreak_ >= probationTarget_) {
            tier_ = DegradationTier::Nominal;
            d.promoted = true;
            d.resetEstimator = true;
            ++repromotions_;
            healthyStreak_ = 0;
            recentResets_ = 0;
        }
        break;
      }
      case DegradationTier::SafePin: {
        // Probation here is time served with quiet sensors; a noisy
        // epoch restarts the quarantine.
        if (!s.sensorStuck && !s.sensorsRepaired)
            ++healthyStreak_;
        else
            healthyStreak_ = 0;
        if (healthyStreak_ >= probationTarget_) {
            tier_ = DegradationTier::Fallback;
            d.promoted = true;
            ++repromotions_;
            healthyStreak_ = 0;
        }
        break;
      }
    }

    d.tier = tier_;
    return d;
}

// ------------------------------------------------- SupervisedController

SupervisedController::SupervisedController(
    std::unique_ptr<MimoArchController> primary,
    std::unique_ptr<ArchController> fallback, const KnobSettings &safe,
    const SensorSanitizerConfig &sanitizer_config,
    const LoopSupervisorConfig &supervisor_config)
    : primary_(std::move(primary)), fallback_(std::move(fallback)),
      safe_(safe), sanitizer_(sanitizer_config),
      supervisor_(supervisor_config)
{
    if (!primary_ || !fallback_)
        fatal("SupervisedController: need a primary and a fallback");
    last_ = safe_;
    // Publishing the zero counts registers their names, so later
    // publishes only look them up.
    publishMetrics();
}

SupervisedController::~SupervisedController()
{
    publishMetrics();
}

void
SupervisedController::publishMetrics() const
{
    telemetry::Registry &reg = telemetry::registry();
    reg.add("supervisor.estimator_resets", supervisor_.estimatorResets());
    reg.add("supervisor.fallback_entries", supervisor_.fallbackEntries());
    reg.add("supervisor.safe_pins", supervisor_.safePins());
    reg.add("supervisor.promotions", supervisor_.repromotions());
}

void
SupervisedController::setReference(double ips0, double power0)
{
    primary_->setReference(ips0, power0);
    fallback_->setReference(ips0, power0);
}

std::pair<double, double>
SupervisedController::reference() const
{
    return primary_->reference();
}

void
SupervisedController::initialize(const KnobSettings &initial)
{
    primary_->initialize(initial);
    fallback_->initialize(initial);
    sanitizer_.reset();
    publishMetrics(); // the counts of the run before; reset() zeroes them
    supervisor_.reset();
    last_ = initial;
    lastTier_ = 0;
}

ControllerHealth
SupervisedController::health() const
{
    ControllerHealth h;
    h.tier = static_cast<unsigned>(supervisor_.tier());
    h.sanitizedMeasurements = sanitizer_.stats().repairs();
    h.rejectedMeasurements = primary_->lqg().rejectedMeasurements();
    h.estimatorResets = supervisor_.estimatorResets();
    h.fallbackEntries = supervisor_.fallbackEntries();
    h.safePins = supervisor_.safePins();
    h.repromotions = supervisor_.repromotions();
    h.watchdogTrips = primary_->lqg().watchdogTrips();
    return h;
}

KnobSettings
SupervisedController::update(const Observation &obs)
{
    // cleanObs_ is a member so the per-epoch update stays
    // allocation-free: its y buffer is reused across epochs.
    Observation &clean = cleanObs_;
    clean.l2Mpki = obs.l2Mpki;
    clean.ipc = obs.ipc;
    clean.y = sanitizer_.sanitize(obs.y);

    SupervisorSignals sig;
    sig.innovationNorm = primary_->lqg().lastInnovationNorm();
    sig.stateFinite = primary_->lqg().stateFinite();
    sig.sensorsRepaired = !sanitizer_.lastEpochClean();
    sig.sensorStuck = sanitizer_.anyChannelStuck();
    const auto [ref_ips, ref_power] = primary_->reference();
    double rel = 0.0;
    if (ref_ips > 0.0) {
        rel = std::max(rel,
                       std::abs(clean.y[kOutputIps] - ref_ips) / ref_ips);
    }
    if (ref_power > 0.0) {
        rel = std::max(
            rel, std::abs(clean.y[kOutputPower] - ref_power) / ref_power);
    }
    sig.relTrackingError = rel;

    const SupervisorDecision d = supervisor_.evaluate(sig);

    // Every transition is an Instant trace event, when the buffer is
    // armed, carrying the tier the ladder landed on; LoopSupervisor
    // counts them.
    const auto mark = [tier = static_cast<int64_t>(d.tier)](
                          const char *event) {
        telemetry::TraceBuffer &tb = telemetry::trace();
        if (tb.enabled())
            tb.instant(event, "supervisor", telemetry::nowNs(), "tier",
                       tier);
    };
    if (d.enteredFallback)
        mark("fallback");
    if (d.tier == DegradationTier::SafePin &&
        lastTier_ != static_cast<unsigned>(DegradationTier::SafePin))
        mark("safe-pin");
    if (d.promoted)
        mark("promoted");
    lastTier_ = static_cast<unsigned>(d.tier);

    if (d.promoted && d.tier == DegradationTier::Nominal) {
        // Back from fallback: restart the servo from the settings the
        // fallback actually left the hardware in.
        primary_->initialize(last_);
    } else if (d.resetEstimator) {
        mark("estimator-reset");
        primary_->resetEstimator();
    }
    if (d.enteredFallback)
        fallback_->initialize(last_);
    if (d.promoted && d.tier == DegradationTier::Fallback)
        fallback_->initialize(last_);

    switch (d.tier) {
      case DegradationTier::Nominal:
      case DegradationTier::Reset:
        last_ = primary_->update(clean);
        break;
      case DegradationTier::Fallback:
        last_ = fallback_->update(clean);
        break;
      case DegradationTier::SafePin:
        last_ = safe_;
        break;
    }
    return last_;
}

} // namespace mimoarch
