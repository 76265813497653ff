/**
 * @file
 * Discrete-time linear state-space models:
 *
 *   x(t+1) = A x(t) + B u(t) + w(t)      w ~ N(0, Qn)
 *   y(t)   = C x(t) + D u(t) + v(t)      v ~ N(0, Rn)
 *
 * This is the system abstraction of the paper's Eq. (1)-(2), together
 * with the two "unpredictability" matrices Qn (non-determinism of the
 * system: interrupts, program behaviour changes) and Rn (sensor noise).
 *
 * Models are identified in scaled (z-scored) coordinates; SignalScaling
 * carries the affine maps between physical and scaled signals.
 */

#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace mimoarch {

/** Per-channel affine scaling between physical and model coordinates. */
struct SignalScaling
{
    std::vector<double> offset; //!< Physical mean per channel.
    std::vector<double> scale;  //!< Physical std-dev per channel (> 0).

    /** Identity scaling for @p n channels. */
    static SignalScaling identity(size_t n);

    /** Fit mean/std scaling from the columns of @p data (T x n). */
    static SignalScaling fit(const Matrix &data);

    size_t channels() const { return offset.size(); }

    /** Physical -> scaled. */
    Matrix toScaled(const Matrix &physical) const;

    /** Scaled -> physical. */
    Matrix toPhysical(const Matrix &scaled) const;

    /** Scale a diagonal quadratic weight from physical to scaled space:
     *  e_phys' W e_phys == e_scaled' (S W S) e_scaled with S=diag(scale).
     */
    Matrix scaleWeight(const Matrix &physical_weight) const;
};

/** The identified system model plus noise and scaling metadata. */
struct StateSpaceModel
{
    Matrix a; //!< N x N evolution matrix.
    Matrix b; //!< N x I input matrix.
    Matrix c; //!< O x N state-to-output matrix.
    Matrix d; //!< O x I feed-through matrix.

    Matrix qn; //!< N x N process-noise (non-determinism) covariance.
    Matrix rn; //!< O x O measurement-noise covariance.

    SignalScaling inputScaling;
    SignalScaling outputScaling;

    size_t stateDim() const { return a.rows(); }
    size_t numInputs() const { return b.cols(); }
    size_t numOutputs() const { return c.rows(); }

    /** Shape consistency check; panics on malformed models. */
    void validate() const;

    /**
     * Simulate the deterministic model from state @p x0 over the input
     * sequence @p u (T x I, scaled units). @return outputs (T x O).
     */
    Matrix simulate(const Matrix &u, const Matrix &x0) const;

    /** Transfer matrix G(z) = C (zI - A)^-1 B + D. */
    CMatrix transferAt(std::complex<double> z) const;
};

} // namespace mimoarch
