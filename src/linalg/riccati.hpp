/**
 * @file
 * Discrete-time algebraic Riccati equation solver.
 *
 * The DARE
 *   P = A' P A - A' P B (R + B' P B)^-1 B' P A + Q
 * is the heart of both LQR gain computation and steady-state Kalman
 * filtering (by duality). We use the structure-preserving doubling
 * algorithm (SDA), which converges quadratically for stabilizable and
 * detectable systems, and verify the result by checking the closed-loop
 * spectral radius and the residual.
 */

#pragma once

#include <optional>

#include "linalg/matrix.hpp"

namespace mimoarch {

/** Result of a DARE solve. */
struct DareResult
{
    Matrix p;              //!< Stabilizing solution (symmetric PSD).
    double residual = 0.0; //!< ||DARE residual||_F / max(1, ||P||_F).
    int iterations = 0;    //!< Doubling iterations taken.
};

/**
 * Solve the DARE for (A, B, Q, R).
 *
 * @param a N x N system matrix.
 * @param b N x I input matrix.
 * @param q N x N state cost (symmetric PSD).
 * @param r I x I input cost (symmetric PD).
 * @return the stabilizing solution, or nullopt when the iteration fails
 *         (e.g. the pair is not stabilizable).
 */
std::optional<DareResult> solveDare(const Matrix &a, const Matrix &b,
                                    const Matrix &q, const Matrix &r);

/** LQR state-feedback gain K (u = -K x) from the DARE solution. */
Matrix lqrGainFromDare(const Matrix &a, const Matrix &b, const Matrix &r,
                       const Matrix &p);

} // namespace mimoarch
