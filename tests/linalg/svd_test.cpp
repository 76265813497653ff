/**
 * @file
 * Tests for the Jacobi SVD: reconstruction, orthogonality, known singular
 * values, complex embedding, and condition numbers.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "linalg/svd.hpp"

namespace mimoarch {
namespace {

void
expectReconstructs(const Matrix &a, double tol = 1e-10)
{
    const SvdResult r = svd(a);
    const size_t n = r.s.size();
    Matrix sigma(n, n);
    for (size_t i = 0; i < n; ++i)
        sigma(i, i) = r.s[i];
    EXPECT_TRUE(approxEqual(r.u * sigma * r.v.transpose(), a, tol))
        << "SVD does not reconstruct " << a.toString();
}

TEST(Svd, DiagonalMatrix)
{
    const SvdResult r = svd(Matrix::diag({3.0, 1.0, 2.0}));
    ASSERT_EQ(r.s.size(), 3u);
    EXPECT_NEAR(r.s[0], 3.0, 1e-12);
    EXPECT_NEAR(r.s[1], 2.0, 1e-12);
    EXPECT_NEAR(r.s[2], 1.0, 1e-12);
}

TEST(Svd, SingularValuesSortedDescending)
{
    Rng rng(7);
    Matrix a(6, 4);
    for (size_t i = 0; i < 6; ++i)
        for (size_t j = 0; j < 4; ++j)
            a(i, j) = rng.normal();
    const SvdResult r = svd(a);
    for (size_t i = 0; i + 1 < r.s.size(); ++i)
        EXPECT_GE(r.s[i], r.s[i + 1]);
}

TEST(Svd, ReconstructionTallRandom)
{
    Rng rng(11);
    Matrix a(5, 3);
    for (size_t i = 0; i < 5; ++i)
        for (size_t j = 0; j < 3; ++j)
            a(i, j) = rng.normal();
    expectReconstructs(a);
}

TEST(Svd, ReconstructionWideRandom)
{
    Rng rng(13);
    Matrix a(3, 5);
    for (size_t i = 0; i < 3; ++i)
        for (size_t j = 0; j < 5; ++j)
            a(i, j) = rng.normal();
    const SvdResult r = svd(a);
    // For a wide matrix the thin factors satisfy a = u * diag(s) * v^T
    // with u 3x3 and v 5x3.
    Matrix sigma(r.s.size(), r.s.size());
    for (size_t i = 0; i < r.s.size(); ++i)
        sigma(i, i) = r.s[i];
    EXPECT_TRUE(approxEqual(r.u * sigma * r.v.transpose(), a, 1e-10));
}

TEST(Svd, VIsOrthogonal)
{
    Rng rng(3);
    Matrix a(6, 4);
    for (size_t i = 0; i < 6; ++i)
        for (size_t j = 0; j < 4; ++j)
            a(i, j) = rng.normal();
    const SvdResult r = svd(a);
    EXPECT_TRUE(approxEqual(r.v.transpose() * r.v,
                            Matrix::identity(4), 1e-10));
    EXPECT_TRUE(approxEqual(r.u.transpose() * r.u,
                            Matrix::identity(4), 1e-10));
}

TEST(Svd, RotationHasUnitSingularValues)
{
    const double t = 0.6;
    Matrix rot{{std::cos(t), -std::sin(t)}, {std::sin(t), std::cos(t)}};
    const SvdResult r = svd(rot);
    EXPECT_NEAR(r.s[0], 1.0, 1e-12);
    EXPECT_NEAR(r.s[1], 1.0, 1e-12);
}

TEST(Svd, MaxSingularValueMatchesSpectralNormBound)
{
    Matrix a{{1, 2}, {3, 4}};
    const double smax = maxSingularValue(a);
    // Known: sigma_max of [[1,2],[3,4]] = sqrt((15+sqrt(221))/2)... use
    // the exact eigenvalues of A^T A = [[10,14],[14,20]]:
    // lambda = 15 +- sqrt(25+196) = 15 +- sqrt(221).
    const double expected = std::sqrt(15.0 + std::sqrt(221.0));
    EXPECT_NEAR(smax, expected, 1e-10);
}

TEST(Svd, ComplexMaxSingularValue)
{
    // For a unitary-scaled matrix c*I, sigma_max = |c|.
    CMatrix a(2, 2);
    a(0, 0) = {3.0, 4.0};
    a(1, 1) = {3.0, 4.0};
    EXPECT_NEAR(maxSingularValue(a), 5.0, 1e-10);
}

TEST(Svd, ConditionNumber)
{
    EXPECT_NEAR(conditionNumber(Matrix::diag({10.0, 1.0})), 10.0, 1e-10);
    EXPECT_TRUE(std::isinf(conditionNumber(Matrix{{1, 1}, {1, 1}})));
}

TEST(Svd, RankOneMatrix)
{
    Matrix u = Matrix::vector({1.0, 2.0});
    Matrix v = Matrix::vector({3.0, 4.0});
    Matrix a = u * v.transpose();
    const SvdResult r = svd(a);
    EXPECT_NEAR(r.s[0], u.frobeniusNorm() * v.frobeniusNorm(), 1e-10);
    EXPECT_NEAR(r.s[1], 0.0, 1e-10);
}

} // namespace
} // namespace mimoarch
