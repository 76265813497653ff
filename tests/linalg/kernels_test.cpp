/**
 * @file
 * The in-place gemv kernel must be *bit-identical* to the allocating
 * operator* it shadows: the golden-trace digests hash every double of
 * every epoch, so a single different rounding is a regression. These
 * tests pin that contract at the kernel level, plus the NaN-propagation
 * fix in operator* (the old zero-skip dropped 0*NaN / 0*Inf). The
 * controller and surrogate steps, which follow the same contract
 * element by element, have their own oracle
 * (tests/control/servo_step_reference_test.cpp).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/random.hpp"
#include "linalg/matrix.hpp"

namespace mimoarch {
namespace {

uint64_t
bitsOf(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** Bitwise equality: NaN payloads and signed zeros must match too. */
void
expectBitEqual(const Matrix &a, const Matrix &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (size_t i = 0; i < a.rows(); ++i) {
        for (size_t j = 0; j < a.cols(); ++j) {
            EXPECT_EQ(bitsOf(a(i, j)), bitsOf(b(i, j)))
                << what << " differs at (" << i << ", " << j << "): "
                << a(i, j) << " vs " << b(i, j);
        }
    }
}

Matrix
randomMatrix(Rng &rng, size_t rows, size_t cols)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < cols; ++j)
            m(i, j) = rng.normal(0.0, 3.0);
    return m;
}

TEST(Kernels, GemvMatchesOperatorBitwise)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 1 + static_cast<size_t>(trial % 6);
        const size_t k = 1 + static_cast<size_t>((trial * 7) % 8);
        const Matrix a = randomMatrix(rng, n, k);
        const Matrix x = randomMatrix(rng, k, 1);
        Matrix out;
        Matrix::gemv(out, a, x);
        expectBitEqual(out, a * x, "gemv");
    }
}

TEST(Kernels, ResizeShapeReusesStorageAndZeroFills)
{
    Matrix m(4, 3, 5.0);
    const double *before = m.data().data();
    m.resizeShape(3, 4); // same element count: storage must be reused
    EXPECT_EQ(m.data().data(), before);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);

    m.resizeShape(2, 2); // different count: fresh zero-initialized cells
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 2u);
    for (size_t i = 0; i < 2; ++i)
        for (size_t j = 0; j < 2; ++j)
            EXPECT_EQ(m(i, j), 0.0);
}

TEST(KernelsDeath, ShapeAndAliasingViolationsPanic)
{
    const Matrix a(2, 3, 1.0);
    const Matrix x(3, 1, 1.0);
    const Matrix short_x(2, 1, 1.0);
    Matrix out;
    EXPECT_DEATH(Matrix::gemv(out, a, a), "");       // x not a vector
    EXPECT_DEATH(Matrix::gemv(out, a, short_x), ""); // inner mismatch
    Matrix alias = a;
    EXPECT_DEATH(Matrix::gemv(alias, alias, x), ""); // out aliases a
}

// --- NaN/Inf propagation: the operator* zero-skip regression -------

TEST(Kernels, ZeroTimesNanPropagatesThroughProduct)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    // Row of zeros times a NaN-poisoned vector: IEEE says 0*NaN = NaN,
    // so the product must be NaN. The old kernel skipped aik == 0 and
    // silently produced 0.0 instead.
    const Matrix a{{0.0, 0.0}, {1.0, 0.0}};
    const Matrix x = Matrix::vector({nan, 2.0});
    const Matrix y = a * x;
    EXPECT_TRUE(std::isnan(y[0])) << "0*NaN was swallowed";
    EXPECT_TRUE(std::isnan(y[1])) << "1*NaN must stay NaN";

    // 0 * Inf is also NaN, not 0.
    const Matrix xi = Matrix::vector({inf, 2.0});
    const Matrix yi = a * xi;
    EXPECT_TRUE(std::isnan(yi[0])) << "0*Inf was swallowed";

    // The in-place kernel follows the same contract.
    Matrix out;
    Matrix::gemv(out, a, x);
    EXPECT_TRUE(std::isnan(out[0]));
}

TEST(Kernels, FiniteProductsUnaffectedByNoSkipChange)
{
    // For finite inputs, keeping the aik == 0 terms cannot change the
    // result: the accumulator starts at +0.0, adding ±0.0 to any value
    // that is not -0.0 is the identity, and a partial sum can only be
    // -0.0 if every term so far was -0.0 (impossible starting from
    // +0.0 in round-to-nearest). Spot-check a signed-zero-heavy case.
    const Matrix a{{0.0, -0.0, 0.0}};
    const Matrix b{{-5.0}, {3.0}, {-0.0}};
    const Matrix y = a * b;
    EXPECT_EQ(bitsOf(y[0]), bitsOf(0.0)); // +0.0, not -0.0
}

} // namespace
} // namespace mimoarch
