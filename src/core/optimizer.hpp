/**
 * @file
 * Fast Optimization Leveraging Tracking (paper §V, Fig. 5 and §VI-B).
 *
 * The optimizer sits above a tracking controller and searches in the
 * *target* space: to maximize IPS^k / P (i.e. minimize E x D^(k-1)) it
 * repeatedly proposes new (IPS0, P0) reference pairs — "Up" (higher IPS
 * at slightly higher power) or "Down" (slightly lower IPS at much lower
 * power) — lets the base controller converge, measures the achieved
 * metric, and keeps or reverses direction. At most maxTries trials per
 * search; no backtracking. A search starts at the first epoch and then
 * only on a phase change (§V). Two deviations from Table III: maxTries
 * is 16 where the paper says 10, and there is no restart every 10 ms
 * (EXPERIMENTS.md, "Known substrate deviations").
 *
 * The same optimizer drives MIMO and Decoupled unmodified; only the
 * exponent k parameterizes the search (§VIII-F).
 */

#pragma once

#include "core/controllers.hpp"

namespace mimoarch {

/** Optimizer parameters (Table III + §VI-B). */
struct OptimizerConfig
{
    unsigned metricExponent = 2;   //!< k in IPS^k / P (k=2 -> E x D).
    unsigned maxTries = 16;
    unsigned settleEpochs = 14;    //!< Wait before measuring a trial.
    unsigned measureEpochs = 12;   //!< Averaging window per trial.
    double upIpsFactor = 1.12;     //!< "Up": IPS +12%...
    double upPowerFactor = 1.06;   //!< ...power +6%.
    double downIpsFactor = 0.97;   //!< "Down": IPS -3%...
    double downPowerFactor = 0.86; //!< ...power -14%.
    /**
     * A trial is accepted only when it beats the best metric by this
     * factor. Epoch-level output noise would otherwise let chance
     * fluctuations ratchet the operating point in a random direction.
     */
    double acceptMargin = 1.02;

    /**
     * Provisionally-accepted trials are re-measured over a second
     * window and must beat the margin again. Squares the false-accept
     * probability under noise at the cost of one extra window per
     * accepted trial.
     */
    bool confirmAccepts = true;
};

/**
 * Reference-space hill climber. Drive it once per epoch with the
 * observed outputs; it adjusts the tracking controller's references.
 */
class Optimizer
{
  public:
    Optimizer(ArchController &controller, const OptimizerConfig &config);

    /** Begin a fresh search from the measured operating point. */
    void startSearch(const Matrix &y_now);

    /** True while a search is in progress. */
    bool searching() const { return state_ != State::Idle; }

    /** Per-epoch hook. */
    void observe(const Matrix &y);

    /** Number of completed trials in the current/last search. */
    unsigned trials() const { return trials_; }

  private:
    enum class State { Idle, Settling, Measuring, Confirming };

    double metric(double ips, double power) const;
    void proposeNext();

    ArchController &controller_;
    OptimizerConfig config_;

    State state_ = State::Idle;
    int direction_ = +1; //!< +1 = Up, -1 = Down.
    unsigned counter_ = 0;
    unsigned trials_ = 0;
    double accIps_ = 0.0;
    double accPower_ = 0.0;
    double bestMetric_ = 0.0;
    double bestIps0_ = 0.0;
    double bestPower0_ = 0.0;
    double curIps0_ = 0.0;
    double curPower0_ = 0.0;
};

} // namespace mimoarch
