/**
 * @file
 * Runtime supervision and graceful degradation for the MIMO loop.
 *
 * The LQG servo is optimal only while its assumptions hold. The
 * LoopSupervisor watches three health signals — estimator innovation
 * magnitude, non-finite internal state, and tracking-error runaway —
 * and escalates through a tiered degradation ladder when they break:
 *
 *   tier 0  Nominal   — MIMO LQG in charge.
 *   tier 1  Reset     — MIMO in charge, estimator/integrator freshly
 *                       re-initialized (transient, self-clearing).
 *   tier 2  Fallback  — the Heuristic controller takes over: worse
 *                       tracking, but no model to poison.
 *   tier 3  SafePin   — a known-safe static configuration is pinned;
 *                       the loop is open but bounded.
 *
 * Demotion is immediate; promotion is earned. After probationEpochs of
 * healthy signals the supervisor promotes one tier, and each demotion
 * that follows a promotion doubles the next probation (backoff), so a
 * persistent fault cannot make the loop thrash between tiers.
 *
 * SupervisedController packages the ladder with a SensorSanitizer as
 * an ArchController, so the harness runs a supervised MIMO loop
 * exactly like a bare one.
 */

#pragma once

#include <memory>

#include "core/controllers.hpp"
#include "robustness/sanitizer.hpp"

namespace mimoarch {

/** The degradation ladder's rungs (== ControllerHealth::tier). */
enum class DegradationTier : unsigned {
    Nominal = 0,
    Reset = 1,
    Fallback = 2,
    SafePin = 3,
};

/** Supervision thresholds. */
struct LoopSupervisorConfig
{
    /** Innovation norm (scaled units) considered implausible. */
    double innovationLimit = 8.0;
    /** Consecutive implausible innovations before acting. */
    unsigned innovationWindow = 10;

    /** Relative tracking error considered runaway. Deliberately above
     *  1.0: an unreachable reference (non-responsive app) saturates
     *  IPS error near 1.0, and that is a healthy loop doing its best,
     *  not a fault. */
    double trackingErrorLimit = 1.5;
    /** Consecutive runaway epochs before escalating. */
    unsigned trackingWindow = 120;

    /** Consecutive stuck-sensor epochs before abandoning the model
     *  (longer than a transient stuck-at episode). */
    unsigned stuckWindow = 40;

    /** Estimator resets within resetMemory epochs before giving up on
     *  tier 1 and falling back. */
    unsigned maxResets = 3;
    unsigned resetMemory = 600;

    /** Healthy epochs required to earn a promotion. */
    unsigned probationEpochs = 300;
    /** Relative tracking error considered healthy during probation. */
    double healthyErrorLimit = 0.35;
    /** Probation multiplier after a failed promotion (backoff). */
    double probationBackoff = 2.0;
    unsigned probationMax = 2400;
};

/** Per-epoch health signals the supervisor consumes. */
struct SupervisorSignals
{
    double innovationNorm = 0.0;   //!< From the LQG estimator.
    bool stateFinite = true;       //!< LQG internal state health.
    double relTrackingError = 0.0; //!< Max over outputs, sanitized view.
    bool sensorsRepaired = false;  //!< Sanitizer touched this epoch.
    bool sensorStuck = false;      //!< Sanitizer's stuck-channel flag.
};

/** What the supervisor wants done this epoch. */
struct SupervisorDecision
{
    DegradationTier tier = DegradationTier::Nominal;
    bool resetEstimator = false;   //!< Re-initialize the LQG state.
    bool enteredFallback = false;  //!< Tier edge: hand off to fallback.
    bool promoted = false;         //!< Tier edge: one rung up.
};

/** The tier state machine. */
class LoopSupervisor
{
  public:
    explicit LoopSupervisor(const LoopSupervisorConfig &config = {});

    /** Advance one epoch. */
    SupervisorDecision evaluate(const SupervisorSignals &signals);

    void reset();

    DegradationTier tier() const { return tier_; }
    unsigned long estimatorResets() const { return estimatorResets_; }
    unsigned long fallbackEntries() const { return fallbackEntries_; }
    unsigned long safePins() const { return safePins_; }
    unsigned long repromotions() const { return repromotions_; }

  private:
    void demote(SupervisorDecision &d, DegradationTier to);

    LoopSupervisorConfig config_;
    DegradationTier tier_ = DegradationTier::Nominal;

    unsigned innovationStreak_ = 0;
    unsigned trackingStreak_ = 0;
    unsigned stuckStreak_ = 0;
    unsigned healthyStreak_ = 0;
    unsigned epochsSinceReset_ = 0;
    unsigned recentResets_ = 0;
    unsigned probationTarget_ = 0;

    unsigned long estimatorResets_ = 0;
    unsigned long fallbackEntries_ = 0;
    unsigned long safePins_ = 0;
    unsigned long repromotions_ = 0;
};

/**
 * Supervised MIMO: sanitizer -> supervisor ladder -> (MIMO | fallback |
 * safe pin). Drops into any harness in place of the bare controller.
 */
class SupervisedController : public ArchController
{
  public:
    /**
     * @param primary the MIMO controller being supervised (owned).
     * @param fallback tier-2 controller, typically Heuristic (owned).
     * @param safe tier-3 pinned configuration.
     */
    SupervisedController(std::unique_ptr<MimoArchController> primary,
                         std::unique_ptr<ArchController> fallback,
                         const KnobSettings &safe,
                         const SensorSanitizerConfig &sanitizer_config,
                         const LoopSupervisorConfig &supervisor_config = {});

    /** Publishes the ladder counts of the last run. */
    ~SupervisedController() override;

    KnobSettings update(const Observation &obs) override;
    void setReference(double ips0, double power0) override;
    std::pair<double, double> reference() const override;
    void initialize(const KnobSettings &initial) override;
    std::string name() const override { return "MIMO+Supervised"; }
    ControllerHealth health() const override;

    DegradationTier tier() const { return supervisor_.tier(); }
    const SensorSanitizer &sanitizer() const { return sanitizer_; }
    const LoopSupervisor &supervisor() const { return supervisor_; }

  private:
    /** Add the supervisor's ladder counts to the registry's
     *  supervisor.* counters. */
    void publishMetrics() const;

    std::unique_ptr<MimoArchController> primary_;
    std::unique_ptr<ArchController> fallback_;
    KnobSettings safe_;
    SensorSanitizer sanitizer_;
    LoopSupervisor supervisor_;
    KnobSettings last_;
    Observation cleanObs_; //!< Reused sanitized view (no per-epoch alloc).

    unsigned lastTier_ = 0; //!< For edge detection (SafePin entry).
};

} // namespace mimoarch
