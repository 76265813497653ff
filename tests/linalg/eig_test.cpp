/**
 * @file
 * Tests for the eigenvalue solver: known spectra, complex pairs, defective
 * matrices, spectral radius, and random-matrix invariants (trace and
 * determinant equal the sum and product of eigenvalues).
 */

#include <algorithm>
#include <cmath>
#include <complex>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "linalg/eig.hpp"
#include "linalg/solve.hpp"

namespace mimoarch {
namespace {

using Complex = std::complex<double>;

std::vector<Complex>
sortedByReal(std::vector<Complex> v)
{
    std::sort(v.begin(), v.end(), [](const Complex &a, const Complex &b) {
        if (a.real() != b.real())
            return a.real() < b.real();
        return a.imag() < b.imag();
    });
    return v;
}

TEST(Eig, DiagonalMatrix)
{
    auto ev = sortedByReal(eigenvalues(Matrix::diag({3.0, 1.0, 2.0})));
    ASSERT_EQ(ev.size(), 3u);
    EXPECT_NEAR(ev[0].real(), 1.0, 1e-10);
    EXPECT_NEAR(ev[1].real(), 2.0, 1e-10);
    EXPECT_NEAR(ev[2].real(), 3.0, 1e-10);
    for (const auto &l : ev)
        EXPECT_NEAR(l.imag(), 0.0, 1e-10);
}

TEST(Eig, UpperTriangularReadsDiagonal)
{
    Matrix a{{2, 5, 1}, {0, -1, 4}, {0, 0, 0.5}};
    auto ev = sortedByReal(eigenvalues(a));
    EXPECT_NEAR(ev[0].real(), -1.0, 1e-10);
    EXPECT_NEAR(ev[1].real(), 0.5, 1e-10);
    EXPECT_NEAR(ev[2].real(), 2.0, 1e-10);
}

TEST(Eig, RotationGivesComplexPair)
{
    const double t = 0.35;
    Matrix rot{{std::cos(t), -std::sin(t)}, {std::sin(t), std::cos(t)}};
    auto ev = eigenvalues(rot);
    ASSERT_EQ(ev.size(), 2u);
    for (const auto &l : ev) {
        EXPECT_NEAR(std::abs(l), 1.0, 1e-10);
        EXPECT_NEAR(std::abs(l.imag()), std::sin(t), 1e-10);
        EXPECT_NEAR(l.real(), std::cos(t), 1e-10);
    }
}

TEST(Eig, DefectiveJordanBlock)
{
    // [[1,1],[0,1]] has a double eigenvalue 1 with one eigenvector.
    Matrix a{{1, 1}, {0, 1}};
    auto ev = eigenvalues(a);
    ASSERT_EQ(ev.size(), 2u);
    for (const auto &l : ev)
        EXPECT_NEAR(std::abs(l - Complex(1.0, 0.0)), 0.0, 1e-7);
}

TEST(Eig, CompanionMatrixRoots)
{
    // Companion matrix of z^3 - 6 z^2 + 11 z - 6 = (z-1)(z-2)(z-3).
    Matrix a{{6, -11, 6}, {1, 0, 0}, {0, 1, 0}};
    auto ev = sortedByReal(eigenvalues(a));
    EXPECT_NEAR(ev[0].real(), 1.0, 1e-8);
    EXPECT_NEAR(ev[1].real(), 2.0, 1e-8);
    EXPECT_NEAR(ev[2].real(), 3.0, 1e-8);
}

TEST(Eig, TraceAndDeterminantInvariants)
{
    Rng rng(101);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 2 + rng.uniformInt(6); // 2..7
        Matrix a(n, n);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j)
                a(i, j) = rng.normal();
        auto ev = eigenvalues(a);
        Complex sum(0, 0), prod(1, 0);
        for (const auto &l : ev) {
            sum += l;
            prod *= l;
        }
        EXPECT_NEAR(sum.real(), a.trace(), 1e-7 * (1.0 + std::abs(a.trace())));
        EXPECT_NEAR(sum.imag(), 0.0, 1e-7);
        const double det = determinant(a);
        EXPECT_NEAR(prod.real(), det, 1e-6 * (1.0 + std::abs(det)));
        EXPECT_NEAR(prod.imag(), 0.0, 1e-6 * (1.0 + std::abs(det)));
    }
}

TEST(Eig, SpectralRadius)
{
    Matrix a{{0.5, 1.0}, {0.0, -0.8}};
    EXPECT_NEAR(spectralRadius(a), 0.8, 1e-10);
}

TEST(Eig, ComplexMatrixEigenvalues)
{
    CMatrix a(2, 2);
    a(0, 0) = Complex(0, 1);
    a(1, 1) = Complex(2, -1);
    auto ev = eigenvalues(a);
    ASSERT_EQ(ev.size(), 2u);
    const bool found_i =
        std::any_of(ev.begin(), ev.end(), [](const Complex &l) {
            return std::abs(l - Complex(0, 1)) < 1e-9;
        });
    const bool found_other =
        std::any_of(ev.begin(), ev.end(), [](const Complex &l) {
            return std::abs(l - Complex(2, -1)) < 1e-9;
        });
    EXPECT_TRUE(found_i);
    EXPECT_TRUE(found_other);
}

TEST(Eig, SingleElement)
{
    auto ev = eigenvalues(Matrix{{4.2}});
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_NEAR(ev[0].real(), 4.2, 1e-12);
}

TEST(Eig, LargerRandomSimilarityInvariance)
{
    // Eigenvalues are invariant under similarity transforms.
    Rng rng(55);
    Matrix a(5, 5);
    for (size_t i = 0; i < 5; ++i)
        for (size_t j = 0; j < 5; ++j)
            a(i, j) = rng.normal();
    Matrix t(5, 5);
    for (size_t i = 0; i < 5; ++i)
        for (size_t j = 0; j < 5; ++j)
            t(i, j) = rng.normal() + (i == j ? 3.0 : 0.0);
    Matrix b = solve(t, a * t); // T^-1 A T
    auto ev_a = eigenvalues(a);
    auto ev_b = eigenvalues(b);
    ASSERT_EQ(ev_a.size(), ev_b.size());
    // Greedy nearest matching: sorting complex conjugate pairs by real
    // part is not a stable order across the two computations.
    for (const auto &la : ev_a) {
        size_t best = 0;
        double best_dist = 1e300;
        for (size_t i = 0; i < ev_b.size(); ++i) {
            const double d = std::abs(la - ev_b[i]);
            if (d < best_dist) {
                best_dist = d;
                best = i;
            }
        }
        EXPECT_NEAR(best_dist, 0.0, 1e-6);
        ev_b.erase(ev_b.begin() + static_cast<long>(best));
    }
}

} // namespace
} // namespace mimoarch
