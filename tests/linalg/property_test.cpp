/**
 * @file
 * Parameterized property sweeps over the linear-algebra kernels:
 * LU round-trips across sizes, SVD reconstruction across shapes, and
 * DARE solutions stabilizing random stabilizable systems across
 * dimensions and seeds.
 */

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "linalg/eig.hpp"
#include "linalg/riccati.hpp"
#include "linalg/solve.hpp"
#include "linalg/svd.hpp"

namespace mimoarch {
namespace {

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng, double scale = 1.0)
{
    Matrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            m(r, c) = rng.normal(0.0, scale);
    return m;
}

// ---------------------------------------------------------------- LU

class LuRoundTrip : public ::testing::TestWithParam<size_t>
{};

TEST_P(LuRoundTrip, SolveRecoversSolution)
{
    const size_t n = GetParam();
    Rng rng(1000 + n);
    for (int trial = 0; trial < 5; ++trial) {
        Matrix a = randomMatrix(n, n, rng) +
            Matrix::identity(n) * 2.0; // keep well-conditioned
        Matrix x_true = randomMatrix(n, 1, rng);
        Matrix x = solve(a, a * x_true);
        EXPECT_TRUE(approxEqual(x, x_true, 1e-7))
            << "n=" << n << " trial=" << trial;
    }
}

TEST_P(LuRoundTrip, InverseTimesSelfIsIdentity)
{
    const size_t n = GetParam();
    Rng rng(2000 + n);
    Matrix a = randomMatrix(n, n, rng) + Matrix::identity(n) * 2.0;
    EXPECT_TRUE(approxEqual(a * inverse(a), Matrix::identity(n), 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 20));

// ---------------------------------------------------------------- SVD

struct SvdShape
{
    size_t rows;
    size_t cols;
};

class SvdReconstruct : public ::testing::TestWithParam<SvdShape>
{};

TEST_P(SvdReconstruct, FactorsReproduceTheMatrix)
{
    const auto [rows, cols] = GetParam();
    Rng rng(3000 + rows * 17 + cols);
    Matrix a = randomMatrix(rows, cols, rng);
    const SvdResult r = svd(a);
    const size_t k = r.s.size();
    Matrix sigma(k, k);
    for (size_t i = 0; i < k; ++i)
        sigma(i, i) = r.s[i];
    EXPECT_TRUE(approxEqual(r.u * sigma * r.v.transpose(), a, 1e-9));
    // Singular values are non-negative and sorted.
    for (size_t i = 0; i + 1 < k; ++i) {
        EXPECT_GE(r.s[i], r.s[i + 1]);
        EXPECT_GE(r.s[i + 1], 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdReconstruct,
                         ::testing::Values(SvdShape{1, 1}, SvdShape{2, 2},
                                           SvdShape{4, 2}, SvdShape{2, 4},
                                           SvdShape{6, 6}, SvdShape{9, 3},
                                           SvdShape{3, 9}));

// --------------------------------------------------------------- DARE

struct DareCase
{
    size_t n;
    size_t m;
    uint64_t seed;
};

class DareStabilizes : public ::testing::TestWithParam<DareCase>
{};

TEST_P(DareStabilizes, SolutionStabilizesAndSatisfiesResidual)
{
    const auto [n, m, seed] = GetParam();
    Rng rng(seed);
    // Contractive-ish A plus full-rank-ish B: stabilizable w.h.p.
    Matrix a = randomMatrix(n, n, rng, 0.4);
    Matrix b = randomMatrix(n, m, rng);
    Matrix q = Matrix::identity(n);
    Matrix r = Matrix::identity(m);
    const auto res = solveDare(a, b, q, r);
    ASSERT_TRUE(res.has_value()) << "n=" << n << " m=" << m;
    EXPECT_LT(res->residual, 1e-7);
    const Matrix k = lqrGainFromDare(a, b, r, res->p);
    EXPECT_LT(spectralRadius(a - b * k), 1.0);
    // P is symmetric PSD.
    EXPECT_TRUE(approxEqual(res->p, res->p.transpose(), 1e-8));
    for (const auto &l : eigenvalues(res->p))
        EXPECT_GE(l.real(), -1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DareStabilizes,
    ::testing::Values(DareCase{2, 1, 11}, DareCase{2, 2, 12},
                      DareCase{3, 1, 13}, DareCase{4, 2, 14},
                      DareCase{4, 4, 15}, DareCase{6, 2, 16},
                      DareCase{6, 3, 17}, DareCase{8, 3, 18}));

} // namespace
} // namespace mimoarch
