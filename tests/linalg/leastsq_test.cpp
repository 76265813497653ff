/**
 * @file
 * Tests for Householder QR and (ridge) least squares.
 */

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "linalg/leastsq.hpp"
#include "linalg/solve.hpp"

namespace mimoarch {
namespace {

TEST(Qr, ExactSquareSolve)
{
    Matrix a{{2, 1}, {1, 3}};
    Matrix b = Matrix::vector({5.0, 10.0});
    Matrix x = solveLeastSquares(a, b);
    EXPECT_TRUE(approxEqual(a * x, b, 1e-12));
}

TEST(Qr, OverdeterminedConsistentSystem)
{
    // Stack an exactly-solvable system: the residual must be ~0.
    Matrix a{{1, 0}, {0, 1}, {1, 1}};
    Matrix x_true = Matrix::vector({2.0, -1.0});
    Matrix b = a * x_true;
    Matrix x = solveLeastSquares(a, b);
    EXPECT_TRUE(approxEqual(x, x_true, 1e-12));
}

TEST(Qr, LeastSquaresMatchesNormalEquations)
{
    Rng rng(42);
    Matrix a(20, 3);
    Matrix b(20, 1);
    for (size_t i = 0; i < 20; ++i) {
        for (size_t j = 0; j < 3; ++j)
            a(i, j) = rng.normal();
        b(i, 0) = rng.normal();
    }
    Matrix x_qr = solveLeastSquares(a, b);
    Matrix x_ne = solve(a.transpose() * a, a.transpose() * b);
    EXPECT_TRUE(approxEqual(x_qr, x_ne, 1e-9));
}

TEST(Qr, MultipleRightHandSides)
{
    Matrix a{{1, 0}, {0, 2}, {1, 1}};
    Matrix x_true{{1, -3}, {2, 4}};
    Matrix b = a * x_true;
    Matrix x = solveLeastSquares(a, b);
    EXPECT_TRUE(approxEqual(x, x_true, 1e-12));
}

TEST(Qr, RFactorIsUpperTriangularAndConsistent)
{
    Matrix a{{1, 2}, {3, 4}, {5, 6}};
    QrDecomposition qr(a);
    Matrix r = qr.r();
    EXPECT_EQ(r.rows(), 2u);
    EXPECT_NEAR(r(1, 0), 0.0, 1e-14);
    // |det(R)| equals sqrt(det(A^T A)).
    const double det_r = std::abs(r(0, 0) * r(1, 1));
    const double det_ata = determinant(a.transpose() * a);
    EXPECT_NEAR(det_r, std::sqrt(det_ata), 1e-9);
}

TEST(Qr, RankDeficiencyDetected)
{
    Matrix a{{1, 2}, {2, 4}, {3, 6}};
    QrDecomposition qr(a);
    EXPECT_FALSE(qr.fullRank());
}

TEST(Ridge, ZeroLambdaMatchesPlainLeastSquares)
{
    Matrix a{{1, 0}, {0, 1}, {1, 1}};
    Matrix b = Matrix::vector({1.0, 2.0, 2.5});
    EXPECT_TRUE(approxEqual(solveRidge(a, b, 0.0),
                            solveLeastSquares(a, b), 1e-12));
}

TEST(Ridge, ShrinksSolutionTowardZero)
{
    Matrix a{{1, 0}, {0, 1}};
    Matrix b = Matrix::vector({1.0, 1.0});
    Matrix x0 = solveRidge(a, b, 0.0);
    Matrix x1 = solveRidge(a, b, 1.0);
    EXPECT_LT(x1.frobeniusNorm(), x0.frobeniusNorm());
    // Closed form for identity A: x = b / (1 + lambda).
    EXPECT_NEAR(x1[0], 0.5, 1e-12);
}

TEST(Ridge, HandlesRankDeficientRegressor)
{
    // Plain least squares would be fatal; ridge must succeed.
    Matrix a{{1, 1}, {2, 2}, {3, 3}};
    Matrix b = Matrix::vector({2.0, 4.0, 6.0});
    Matrix x = solveRidge(a, b, 1e-6);
    // Symmetry: both coefficients equal.
    EXPECT_NEAR(x[0], x[1], 1e-9);
    EXPECT_NEAR(x[0] + x[1], 2.0, 1e-3);
}

TEST(Ridge, NegativeLambdaIsFatal)
{
    Matrix a{{1.0}};
    Matrix b{{1.0}};
    EXPECT_EXIT(solveRidge(a, b, -1.0), testing::ExitedWithCode(1),
                "non-negative");
}

} // namespace
} // namespace mimoarch
