#include "linalg/matrix.hpp"

namespace mimoarch {

CMatrix
toComplex(const Matrix &m)
{
    CMatrix c(m.rows(), m.cols());
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t k = 0; k < m.cols(); ++k)
            c(r, k) = std::complex<double>(m(r, k), 0.0);
    return c;
}

Matrix
vcat(const Matrix &a, const Matrix &b)
{
    if (a.cols() != b.cols())
        panic("vcat column mismatch: ", a.cols(), " vs ", b.cols());
    Matrix m(a.rows() + b.rows(), a.cols());
    m.setBlock(0, 0, a);
    m.setBlock(a.rows(), 0, b);
    return m;
}

bool
approxEqual(const Matrix &a, const Matrix &b, double tol)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            if (std::abs(a(r, c) - b(r, c)) > tol)
                return false;
    return true;
}

} // namespace mimoarch
