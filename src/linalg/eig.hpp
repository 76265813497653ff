/**
 * @file
 * Eigenvalues of general square matrices.
 *
 * The implementation promotes the matrix to complex, reduces it to upper
 * Hessenberg form with Householder reflections, and runs the shifted QR
 * iteration (Wilkinson shifts) with deflation. Working in complex
 * arithmetic sidesteps the 2x2 real-block bookkeeping of the Francis
 * double-shift algorithm; the matrices here are tiny so the constant
 * factor is irrelevant.
 *
 * Eigenvalues drive the stability checks: a discrete-time system is
 * asymptotically stable iff the spectral radius of its A matrix is < 1.
 */

#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace mimoarch {

/** All eigenvalues of a real square matrix (unordered). */
std::vector<std::complex<double>> eigenvalues(const Matrix &a);

/** All eigenvalues of a complex square matrix (unordered). */
std::vector<std::complex<double>> eigenvalues(const CMatrix &a);

/** Largest |eigenvalue| of a real square matrix. */
double spectralRadius(const Matrix &a);

} // namespace mimoarch
