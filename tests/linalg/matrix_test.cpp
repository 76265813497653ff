/**
 * @file
 * Unit tests for the dense matrix type: construction, arithmetic, blocks,
 * concatenation, and norms.
 */

#include <gtest/gtest.h>

#include "linalg/matrix.hpp"

namespace mimoarch {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty)
{
    Matrix m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_TRUE(m.empty());
}

TEST(Matrix, SizedConstructorZeroInitializes)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (size_t r = 0; r < 2; ++r)
        for (size_t c = 0; c < 3; ++c)
            EXPECT_EQ(m(r, c), 0.0);
}

TEST(Matrix, FillConstructor)
{
    Matrix m(2, 2, 7.0);
    EXPECT_EQ(m(0, 0), 7.0);
    EXPECT_EQ(m(1, 1), 7.0);
}

TEST(Matrix, InitializerListLayout)
{
    Matrix m{{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m(0, 2), 3.0);
    EXPECT_EQ(m(1, 0), 4.0);
}

TEST(Matrix, VectorFactory)
{
    Matrix v = Matrix::vector({1.0, 2.0, 3.0});
    EXPECT_TRUE(v.isVector());
    EXPECT_EQ(v.rows(), 3u);
    EXPECT_EQ(v[1], 2.0);
}

TEST(Matrix, IdentityAndDiag)
{
    Matrix i = Matrix::identity(3);
    EXPECT_EQ(i(0, 0), 1.0);
    EXPECT_EQ(i(0, 1), 0.0);
    Matrix d = Matrix::diag({2.0, 3.0});
    EXPECT_EQ(d(0, 0), 2.0);
    EXPECT_EQ(d(1, 1), 3.0);
    EXPECT_EQ(d(1, 0), 0.0);
}

TEST(Matrix, AdditionSubtraction)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{4, 3}, {2, 1}};
    Matrix s = a + b;
    EXPECT_TRUE(approxEqual(s, Matrix{{5, 5}, {5, 5}}));
    Matrix d = a - b;
    EXPECT_TRUE(approxEqual(d, Matrix{{-3, -1}, {1, 3}}));
}

TEST(Matrix, ScalarMultiply)
{
    Matrix a{{1, 2}, {3, 4}};
    EXPECT_TRUE(approxEqual(2.0 * a, Matrix{{2, 4}, {6, 8}}));
    EXPECT_TRUE(approxEqual(a * 0.5, Matrix{{0.5, 1}, {1.5, 2}}));
    EXPECT_TRUE(approxEqual(-a, Matrix{{-1, -2}, {-3, -4}}));
}

TEST(Matrix, Product)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{5, 6}, {7, 8}};
    EXPECT_TRUE(approxEqual(a * b, Matrix{{19, 22}, {43, 50}}));
}

TEST(Matrix, ProductNonSquare)
{
    Matrix a{{1, 2, 3}};          // 1x3
    Matrix b{{1}, {2}, {3}};      // 3x1
    Matrix p = a * b;             // 1x1 = 14
    EXPECT_EQ(p.rows(), 1u);
    EXPECT_EQ(p.cols(), 1u);
    EXPECT_DOUBLE_EQ(p(0, 0), 14.0);
    Matrix outer = b * a;         // 3x3
    EXPECT_EQ(outer.rows(), 3u);
    EXPECT_DOUBLE_EQ(outer(2, 2), 9.0);
}

TEST(Matrix, IdentityIsMultiplicativeNeutral)
{
    Matrix a{{1, 2}, {3, 4}};
    EXPECT_TRUE(approxEqual(a * Matrix::identity(2), a));
    EXPECT_TRUE(approxEqual(Matrix::identity(2) * a, a));
}

TEST(Matrix, Transpose)
{
    Matrix a{{1, 2, 3}, {4, 5, 6}};
    Matrix t = a.transpose();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_EQ(t(2, 1), 6.0);
    EXPECT_TRUE(approxEqual(t.transpose(), a));
}

TEST(Matrix, BlockExtractAndSet)
{
    Matrix a{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
    Matrix b = a.block(1, 1, 2, 2);
    EXPECT_TRUE(approxEqual(b, Matrix{{5, 6}, {8, 9}}));
    a.setBlock(0, 0, Matrix{{0, 0}, {0, 0}});
    EXPECT_EQ(a(0, 0), 0.0);
    EXPECT_EQ(a(1, 1), 0.0);
    EXPECT_EQ(a(2, 2), 9.0);
}

TEST(Matrix, RowAndColViews)
{
    Matrix a{{1, 2}, {3, 4}};
    EXPECT_TRUE(approxEqual(a.row(1), Matrix{{3, 4}}));
    Matrix c = a.col(0);
    EXPECT_TRUE(c.isVector());
    EXPECT_EQ(c[1], 3.0);
}

TEST(Matrix, Vcat)
{
    Matrix a{{1}, {2}};
    Matrix b{{3}, {4}};
    EXPECT_TRUE(approxEqual(vcat(a.transpose(), b.transpose()),
                            Matrix{{1, 2}, {3, 4}}));
}

TEST(Matrix, FrobeniusNormAndMaxAbs)
{
    Matrix a{{3, 0}, {0, -4}};
    EXPECT_DOUBLE_EQ(a.frobeniusNorm(), 5.0);
    EXPECT_DOUBLE_EQ(a.maxAbs(), 4.0);
}

TEST(Matrix, Trace)
{
    Matrix a{{1, 9}, {9, 5}};
    EXPECT_DOUBLE_EQ(a.trace(), 6.0);
}

TEST(Matrix, ComplexPromotion)
{
    Matrix a{{1, 2}, {3, 4}};
    CMatrix c = toComplex(a);
    EXPECT_EQ(c(1, 0).real(), 3.0);
    EXPECT_EQ(c(1, 0).imag(), 0.0);
}

TEST(Matrix, ApproxEqualRespectsTolerance)
{
    Matrix a{{1.0}};
    Matrix b{{1.0 + 1e-12}};
    EXPECT_TRUE(approxEqual(a, b, 1e-9));
    EXPECT_FALSE(approxEqual(a, b, 1e-15));
    EXPECT_FALSE(approxEqual(a, Matrix(1, 2)));
}

TEST(MatrixDeath, ShapeMismatchPanics)
{
    Matrix a(2, 2);
    Matrix b(3, 3);
    EXPECT_DEATH(a + b, "shape mismatch");
    EXPECT_DEATH(a * Matrix(3, 1), "shape mismatch");
#if MIMOARCH_CHECKED
    // Element-index checking is compiled out in Release builds; shape
    // checks above stay unconditional.
    EXPECT_DEATH(a(5, 0), "out of range");
#endif
}

} // namespace
} // namespace mimoarch
