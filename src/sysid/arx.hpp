/**
 * @file
 * MIMO ARX identification and state-space realization — the
 * least-squares "solver for a dynamic environment" of the paper's
 * design flow (MATLAB System Identification Toolbox substitute).
 *
 * Model structure (paper §IV-B1): the outputs at time t depend on the
 * outputs at the previous k steps, the inputs at the current and
 * previous steps, and a noise term:
 *
 *   y(t) = sum_{i=1..k} Ai y(t-i) + sum_{j=0..k} Bj u(t-j) + e(t)
 *
 * Fitting is ridge-regularized least squares on z-scored signals. The
 * realization is the block observer (innovations) form of dimension
 * N = O * k, which reproduces the ARX recursion exactly and carries the
 * residual covariance into the model's unpredictability matrices.
 */

#pragma once

#include "control/statespace.hpp"
#include "linalg/matrix.hpp"

namespace mimoarch {

/** ARX structure and fitting options. */
struct ArxConfig
{
    size_t order = 2;     //!< k: output/input history depth.
    double ridge = 1e-6;  //!< Regularization on the regression.
};

/** The fitted ARX coefficient matrices (scaled coordinates). */
struct ArxModel
{
    std::vector<Matrix> aCoef; //!< k matrices, O x O (y history).
    std::vector<Matrix> bCoef; //!< k+1 matrices, O x I (u history,
                               //!< index 0 = current input).
    Matrix residualCov;        //!< O x O innovation covariance.
    SignalScaling inputScaling;
    SignalScaling outputScaling;
    size_t order = 0;

    size_t numOutputs() const { return aCoef.empty() ? 0 : aCoef[0].rows(); }
    size_t numInputs() const { return bCoef.empty() ? 0 : bCoef[0].cols(); }

    /**
     * Simulate the ARX recursion over physical inputs (T x I) given
     * zero initial history; returns physical outputs (T x O).
     */
    Matrix simulate(const Matrix &u_physical) const;
};

/**
 * Fit a MIMO ARX model to physical input/output records (T x I, T x O).
 * Signals are z-scored internally; the scaling is stored in the model.
 */
ArxModel fitArx(const Matrix &u_physical, const Matrix &y_physical,
                const ArxConfig &config);

/**
 * Realize the ARX model as a state-space model of dimension O * order
 * in block observer (innovations) form. The realization's Qn/Rn come
 * from the residual covariance: Rn = cov(e) and Qn = G Rn G' where G is
 * the innovation-to-state injection of the observer form.
 */
StateSpaceModel realize(const ArxModel &arx);

/**
 * Identify a model in one call: fit + realize, as the paper's flow does.
 * The state dimension is O * config.order (Table III's "dimensions of
 * system state").
 */
StateSpaceModel identify(const Matrix &u_physical,
                         const Matrix &y_physical,
                         const ArxConfig &config);

} // namespace mimoarch
