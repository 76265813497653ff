/**
 * @file
 * Tests for the DARE solver, including the LQR gain helper and
 * property checks on random stabilizable systems.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "linalg/eig.hpp"
#include "linalg/riccati.hpp"
#include "linalg/solve.hpp"

namespace mimoarch {
namespace {

TEST(Dare, ScalarClosedForm)
{
    // Scalar DARE: p = a^2 p - a^2 p^2 b^2/(r + b^2 p) + q.
    // With a=0.5, b=1, q=1, r=1 the positive root solves
    // p = 0.25 p - 0.25 p^2/(1+p) + 1  =>  p^2*... use numeric root.
    Matrix a{{0.5}};
    Matrix b{{1.0}};
    Matrix q{{1.0}};
    Matrix r{{1.0}};
    auto res = solveDare(a, b, q, r);
    ASSERT_TRUE(res.has_value());
    const double p = res->p(0, 0);
    // Verify the fixed point directly.
    const double rhs = 0.25 * p - 0.25 * p * p / (1.0 + p) + 1.0;
    EXPECT_NEAR(p, rhs, 1e-10);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(res->residual, 1e-8);
}

TEST(Dare, SolutionIsSymmetricPsd)
{
    Matrix a{{1.1, 0.2}, {0.0, 0.9}}; // unstable open loop
    Matrix b{{1.0}, {0.5}};
    Matrix q = Matrix::diag({1.0, 2.0});
    Matrix r{{1.0}};
    auto res = solveDare(a, b, q, r);
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(approxEqual(res->p, res->p.transpose(), 1e-9));
    auto ev = eigenvalues(res->p);
    for (const auto &l : ev) {
        EXPECT_GE(l.real(), -1e-9);
        EXPECT_NEAR(l.imag(), 0.0, 1e-9);
    }
}

TEST(Dare, ClosedLoopIsStable)
{
    Matrix a{{1.2, 0.1}, {0.3, 1.05}}; // strongly unstable
    Matrix b{{1.0, 0.0}, {0.0, 1.0}};
    Matrix q = Matrix::identity(2);
    Matrix r = Matrix::identity(2) * 0.1;
    auto res = solveDare(a, b, q, r);
    ASSERT_TRUE(res.has_value());
    Matrix k = lqrGainFromDare(a, b, r, res->p);
    EXPECT_LT(spectralRadius(a - b * k), 1.0);
}

TEST(Dare, HigherInputWeightGivesSmallerGain)
{
    // The paper's R intuition: a more expensive input is moved less.
    Matrix a{{0.95}};
    Matrix b{{1.0}};
    Matrix q{{1.0}};
    auto cheap = solveDare(a, b, q, Matrix{{0.1}});
    auto costly = solveDare(a, b, q, Matrix{{10.0}});
    ASSERT_TRUE(cheap && costly);
    const double k_cheap =
        lqrGainFromDare(a, b, Matrix{{0.1}}, cheap->p)(0, 0);
    const double k_costly =
        lqrGainFromDare(a, b, Matrix{{10.0}}, costly->p)(0, 0);
    EXPECT_GT(std::abs(k_cheap), std::abs(k_costly));
}

TEST(Dare, RandomStabilizableSystemsProperty)
{
    Rng rng(2016);
    int solved = 0;
    for (int trial = 0; trial < 25; ++trial) {
        const size_t n = 2 + rng.uniformInt(4); // 2..5
        const size_t m = 1 + rng.uniformInt(n); // 1..n
        Matrix a(n, n);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j)
                a(i, j) = rng.normal(0.0, 0.45);
        Matrix b(n, m);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < m; ++j)
                b(i, j) = rng.normal();
        Matrix q = Matrix::identity(n);
        Matrix r = Matrix::identity(m);
        auto res = solveDare(a, b, q, r);
        if (!res)
            continue; // not stabilizable / numerically hard — skip
        ++solved;
        EXPECT_LT(res->residual, 1e-7);
        Matrix k = lqrGainFromDare(a, b, r, res->p);
        EXPECT_LT(spectralRadius(a - b * k), 1.0);
    }
    // Random contractive-ish systems are almost always solvable.
    EXPECT_GE(solved, 20);
}

TEST(Dare, RejectsInconsistentShapes)
{
    EXPECT_DEATH(solveDare(Matrix(2, 2), Matrix(3, 1), Matrix(2, 2),
                           Matrix(1, 1)),
                 "inconsistent");
}

} // namespace
} // namespace mimoarch
