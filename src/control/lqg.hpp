/**
 * @file
 * The LQG servo controller — the paper's MIMO controller (§III-A).
 *
 * Cost function (the paper's formulation): the controller minimizes the
 * weighted sum of squared tracking errors (output-deviation cost Q) and
 * squared input *changes* (control-effort cost R) — "the controller
 * minimizes input changes to avoid quick jerks from steady state".
 *
 * Construction: the plant model is augmented with (a) the previous input
 * u(t-1) so the LQR input is the increment Delta-u, and (b) an output
 * error integrator for offset-free tracking under model mismatch. The
 * LQR gain comes from a DARE on the augmented system; the state estimate
 * comes from a steady-state Kalman filter designed on the identified
 * noise (unpredictability) covariances — estimation and input generation
 * run simultaneously, exactly as described in the paper.
 *
 * All runtime work is a handful of matrix-vector products (the paper's
 * overhead argument: "four floating-point vector-matrix multiplies,
 * fewer than 100 stored floats" for the 2-input example).
 */

#pragma once

#include <cmath>
#include <optional>
#include <vector>

#include "common/expected.hpp"
#include "control/statespace.hpp"
#include "linalg/matrix.hpp"

namespace mimoarch {

/** Designer-chosen weights (Table II / Table III semantics). */
struct LqgWeights
{
    /** Tracking-error cost per output (physical units), diagonal. */
    std::vector<double> outputWeights;
    /** Control-effort cost per input (physical units), diagonal. */
    std::vector<double> inputWeights;
    /** Integral-action strength as a fraction of the output weights. */
    double integralFraction = 0.05;
    /** Small absolute-input-deviation cost (keeps the DARE detectable). */
    double inputHoldFraction = 0.01;
};

/** Static design result, exposed for analysis and tests. */
struct LqgDesign
{
    Matrix kx; //!< Gain on the state estimate deviation.
    Matrix ku; //!< Gain on the previous-input deviation.
    Matrix kz; //!< Gain on the error integrator.
    Matrix kzPinv; //!< Pseudo-inverse of kz (anti-windup back-calc).
    Matrix kalmanGain; //!< Steady-state estimator gain L.
    double dareResidual = 0.0;
};

/** Saturation limits per input, in physical units. */
struct InputLimits
{
    std::vector<double> lo;
    std::vector<double> hi;
};

/**
 * The runtime LQG servo controller. Works entirely in the model's scaled
 * coordinates; callers pass physical readings and receive physical input
 * commands.
 */
class LqgServoController
{
  public:
    /**
     * Design the controller for @p model with @p weights.
     * @param limits physical saturation bounds per input.
     * fatal()s if the DARE has no stabilizing solution; design loops
     * that want to change weights and retry (Fig. 3) use tryMake().
     */
    LqgServoController(const StateSpaceModel &model,
                       const LqgWeights &weights,
                       const InputLimits &limits);

    /**
     * Recoverable variant of the constructor: returns an Error
     * (DareNotConverged / KalmanNotConverged / InvalidArgument)
     * instead of aborting, so the design flow can adjust weights and
     * retry as the paper describes (§IV-B4).
     */
    static Result<LqgServoController>
    tryMake(const StateSpaceModel &model, const LqgWeights &weights,
            const InputLimits &limits);

    /** Set the output reference values (physical units, O x 1). */
    void setReference(const Matrix &y0_physical);

    /** Current reference (physical units). */
    const Matrix &reference() const { return y0Physical_; }

    /**
     * One control step: observe @p y (physical O x 1), produce the next
     * input command (physical I x 1, saturated but not quantized).
     *
     * A measurement with a non-finite component is *rejected*: the
     * estimator and integrator are left untouched, the last applied
     * command is re-issued, and rejectedMeasurements() is incremented.
     * A single corrupt power sample must never poison the state
     * estimate or kill the loop.
     *
     * The returned reference points into a controller-owned buffer and
     * is valid until the next step()/reset() call. Calls perform no
     * heap allocation. Each command, innovation and next-state element
     * is built in one pass over the design matrices' row-major storage,
     * with the rounding sequence of the matrix-vector form (DESIGN.md
     * §9), so golden-trace digests are unchanged. A PaperShape model
     * runs the body compiled at that shape, any other the one with
     * run-time extents; both give the same bits.
     */
    const Matrix &step(const Matrix &y_physical);

    /**
     * Reset the estimator/integrator, keeping the design. fatal()s
     * unless @p u_initial_physical is I x 1.
     */
    void reset(const Matrix &u_initial_physical);

    /**
     * Supervisory escape threshold: when the command has been pinned
     * at a saturation rail for this many consecutive steps while the
     * tracking error stays large, the estimator and integrator are
     * re-initialized. Saturation freezes the integrator, so a badly
     * initialized transient can otherwise lock the loop into a wrong
     * corner of the discrete input space. 0 disables the watchdog.
     */
    void setSaturationWatchdog(unsigned steps) { watchdogSteps_ = steps; }

    /** Times the saturation watchdog re-initialized the servo. */
    unsigned long watchdogTrips() const { return watchdogTrips_; }

    /** Non-finite measurements rejected (held) by step(). */
    unsigned long rejectedMeasurements() const { return rejectedMeasurements_; }

    /**
     * Norm of the last step's Kalman innovation (scaled coordinates).
     * A supervisor watches this: persistent large innovations mean the
     * measurements no longer fit the model (sensor fault or plant
     * departure) and the estimate is drifting.
     */
    double lastInnovationNorm() const { return std::sqrt(lastInnovationSq_); }

    /** True while the estimator/integrator state is finite. */
    bool stateFinite() const;

    /** Static design artifacts. */
    const LqgDesign &design() const { return design_; }

    /** The model the controller was designed for. */
    const StateSpaceModel &model() const { return model_; }

    /**
     * Controller as a state-space system from measurement y to command
     * u around zero reference (scaled coordinates) — used for robust
     * stability analysis. State is [x_hat; u_prev; z].
     */
    StateSpaceModel controllerRealization() const;

    /** Number of stored floating-point coefficients (overhead claim). */
    size_t storedFloats() const;

  private:
    LqgServoController() = default; //!< For tryMake().

    /** The whole design computation; all recoverable failures. */
    Status init();

    /** Steady-state servo targets (xSs_, uSs_) for y0Scaled_. */
    void computeTargets();

    /** step()'s one body, at a ModelShape (statespace.hpp). */
    template <class Shape>
    const Matrix &stepAt(const Matrix &y_physical);

    StateSpaceModel model_;
    LqgWeights weights_;
    InputLimits limits_;
    LqgDesign design_;

    // Targets (scaled coordinates).
    Matrix y0Physical_;
    Matrix y0Scaled_;
    Matrix xSs_;
    Matrix uSs_;

    // Runtime state (scaled coordinates), sized by reset().
    std::vector<double> xHat_;
    std::vector<double> uPrev_;
    std::vector<double> zInt_;

    // step() buffers, sized by init(): every element of the next state
    // reads every innovation and every old state element, and the
    // anti-windup correction reads every input's excess.
    Matrix uPhys_;                //!< I x 1 physical command (returned).
    std::vector<double> uExcess_; //!< Command before minus after saturation.
    std::vector<double> inno_;    //!< Kalman innovation.
    std::vector<double> xNext_;   //!< Next state estimate.

    unsigned watchdogSteps_ = 100;
    unsigned satStreak_ = 0;
    unsigned long watchdogTrips_ = 0;
    unsigned long rejectedMeasurements_ = 0;
    double lastInnovationSq_ = 0.0; //!< Squared norm of the innovation.
};

} // namespace mimoarch
