#include "linalg/eig.hpp"

#include <algorithm>
#include <cmath>

namespace mimoarch {

namespace {

using Complex = std::complex<double>;

/** Reduce @p h to upper Hessenberg form in place (complex Householder). */
void
hessenbergReduce(CMatrix &h)
{
    const size_t n = h.rows();
    if (n < 3)
        return;
    for (size_t k = 0; k + 2 < n; ++k) {
        // Householder vector for column k, rows k+1..n-1.
        double norm_x = 0.0;
        for (size_t i = k + 1; i < n; ++i)
            norm_x += std::norm(h(i, k));
        norm_x = std::sqrt(norm_x);
        if (norm_x < 1e-300)
            continue;

        Complex x0 = h(k + 1, k);
        const double x0_abs = std::abs(x0);
        const Complex phase = x0_abs > 0 ? x0 / x0_abs : Complex(1, 0);
        const Complex alpha = -phase * norm_x;

        std::vector<Complex> v(n, Complex(0, 0));
        v[k + 1] = x0 - alpha;
        for (size_t i = k + 2; i < n; ++i)
            v[i] = h(i, k);
        double vtv = 0.0;
        for (size_t i = k + 1; i < n; ++i)
            vtv += std::norm(v[i]);
        if (vtv < 1e-300)
            continue;
        const double beta = 2.0 / vtv;

        // H <- (I - beta v v*) H
        for (size_t c = 0; c < n; ++c) {
            Complex s(0, 0);
            for (size_t i = k + 1; i < n; ++i)
                s += std::conj(v[i]) * h(i, c);
            s *= beta;
            for (size_t i = k + 1; i < n; ++i)
                h(i, c) -= s * v[i];
        }
        // H <- H (I - beta v v*)
        for (size_t r = 0; r < n; ++r) {
            Complex s(0, 0);
            for (size_t i = k + 1; i < n; ++i)
                s += h(r, i) * v[i];
            s *= beta;
            for (size_t i = k + 1; i < n; ++i)
                h(r, i) -= s * std::conj(v[i]);
        }
    }
}

/** Wilkinson shift from the trailing 2x2 block ending at row @p m. */
Complex
wilkinsonShift(const CMatrix &h, size_t m)
{
    const Complex a = h(m - 1, m - 1);
    const Complex b = h(m - 1, m);
    const Complex c = h(m, m - 1);
    const Complex d = h(m, m);
    const Complex tr = a + d;
    const Complex det = a * d - b * c;
    const Complex disc = std::sqrt(tr * tr - 4.0 * det);
    const Complex l1 = (tr + disc) / 2.0;
    const Complex l2 = (tr - disc) / 2.0;
    return std::abs(l1 - d) < std::abs(l2 - d) ? l1 : l2;
}

/**
 * Shifted QR iteration on an upper Hessenberg complex matrix using Givens
 * rotations; returns the eigenvalues.
 */
std::vector<Complex>
hessenbergQrEigenvalues(CMatrix h)
{
    const size_t n = h.rows();
    std::vector<Complex> eig(n);
    if (n == 0)
        return eig;
    if (n == 1) {
        eig[0] = h(0, 0);
        return eig;
    }

    size_t m = n - 1; // active block is rows/cols 0..m
    int iter_since_deflation = 0;
    const int max_iter = 30 * static_cast<int>(n) + 100;
    int total_iter = 0;

    while (true) {
        if (++total_iter > max_iter)
            fatal("eigenvalue QR iteration failed to converge");

        // Deflate tiny subdiagonals inside the active block.
        for (size_t i = m; i >= 1; --i) {
            const double small = 1e-15 *
                (std::abs(h(i - 1, i - 1)) + std::abs(h(i, i)) + 1e-300);
            if (std::abs(h(i, i - 1)) < small)
                h(i, i - 1) = Complex(0, 0);
            if (i == 1)
                break;
        }
        // Shrink the block while its last subdiagonal is zero.
        while (m >= 1 && h(m, m - 1) == Complex(0, 0)) {
            eig[m] = h(m, m);
            --m;
            iter_since_deflation = 0;
            if (m == 0)
                break;
        }
        if (m == 0) {
            eig[0] = h(0, 0);
            return eig;
        }

        // Pick a shift; use an exceptional one when stuck.
        Complex mu;
        if (++iter_since_deflation % 12 == 0) {
            double exceptional = std::abs(h(m, m - 1));
            if (m >= 2)
                exceptional += std::abs(h(m - 1, m - 2));
            mu = Complex(exceptional, 0.0);
        } else {
            mu = wilkinsonShift(h, m);
        }

        // One implicit shifted QR sweep on rows 0..m via Givens rotations.
        for (size_t i = 0; i <= m; ++i)
            h(i, i) -= mu;
        std::vector<double> cs(m, 0.0);
        std::vector<Complex> sn(m, Complex(0, 0));
        for (size_t k = 0; k < m; ++k) {
            // Zero h(k+1, k) with a Givens rotation on rows k, k+1.
            const Complex f = h(k, k);
            const Complex g = h(k + 1, k);
            const double denom = std::sqrt(std::norm(f) + std::norm(g));
            double c_k;
            Complex s_k;
            if (denom < 1e-300) {
                c_k = 1.0;
                s_k = Complex(0, 0);
            } else {
                c_k = std::abs(f) / denom;
                const Complex f_phase = std::abs(f) > 0 ?
                    f / std::abs(f) : Complex(1, 0);
                s_k = f_phase * std::conj(g) / denom;
            }
            cs[k] = c_k;
            sn[k] = s_k;
            for (size_t c = k; c <= m; ++c) {
                const Complex t1 = h(k, c);
                const Complex t2 = h(k + 1, c);
                h(k, c) = c_k * t1 + s_k * t2;
                h(k + 1, c) = -std::conj(s_k) * t1 + c_k * t2;
            }
        }
        // Multiply by the rotations on the right (RQ step).
        for (size_t k = 0; k < m; ++k) {
            const size_t hi = std::min(k + 2, m);
            for (size_t r = 0; r <= hi; ++r) {
                const Complex t1 = h(r, k);
                const Complex t2 = h(r, k + 1);
                h(r, k) = cs[k] * t1 + std::conj(sn[k]) * t2;
                h(r, k + 1) = -sn[k] * t1 + cs[k] * t2;
            }
        }
        for (size_t i = 0; i <= m; ++i)
            h(i, i) += mu;
    }
}

} // namespace

std::vector<Complex>
eigenvalues(const CMatrix &a)
{
    if (!a.isSquare())
        panic("eigenvalues of a non-square matrix");
    CMatrix h = a;
    hessenbergReduce(h);
    return hessenbergQrEigenvalues(std::move(h));
}

std::vector<Complex>
eigenvalues(const Matrix &a)
{
    return eigenvalues(toComplex(a));
}

double
spectralRadius(const Matrix &a)
{
    double r = 0.0;
    for (const Complex &l : eigenvalues(a))
        r = std::max(r, std::abs(l));
    return r;
}

} // namespace mimoarch
