#include "linalg/riccati.hpp"

#include <cmath>

#include "linalg/eig.hpp"
#include "linalg/solve.hpp"

namespace mimoarch {

namespace {

Matrix
symmetrize(const Matrix &m)
{
    return (m + m.transpose()) * 0.5;
}

} // namespace

std::optional<DareResult>
solveDare(const Matrix &a, const Matrix &b, const Matrix &q,
          const Matrix &r)
{
    const size_t n = a.rows();
    if (!a.isSquare() || b.rows() != n || !q.isSquare() || q.rows() != n ||
        !r.isSquare() || r.rows() != b.cols()) {
        panic("solveDare: inconsistent shapes");
    }

    // Structure-preserving doubling:
    //   A_{k+1} = A_k (I + G_k H_k)^-1 A_k
    //   G_{k+1} = G_k + A_k (I + G_k H_k)^-1 G_k A_k'
    //   H_{k+1} = H_k + A_k' H_k (I + G_k H_k)^-1 A_k
    // with A_0 = A, G_0 = B R^-1 B', H_0 = Q; H_k -> P.
    LuDecomposition<double> r_lu(r);
    if (!r_lu.ok())
        return std::nullopt;
    Matrix g = b * r_lu.solve(b.transpose());
    Matrix h = symmetrize(q);
    Matrix ak = a;
    const Matrix eye = Matrix::identity(n);

    DareResult res;
    const int max_iter = 100;
    for (int it = 0; it < max_iter; ++it) {
        LuDecomposition<double> w_lu(eye + g * h);
        if (!w_lu.ok())
            return std::nullopt;
        const Matrix w_inv_a = w_lu.solve(ak);
        const Matrix w_inv_g = w_lu.solve(g);
        const Matrix a_next = ak * w_inv_a;
        const Matrix g_next =
            symmetrize(g + ak * w_inv_g * ak.transpose());
        const Matrix h_next =
            symmetrize(h + ak.transpose() * h * w_inv_a);

        const double delta = (h_next - h).maxAbs();
        const double scale = std::max(1.0, h_next.maxAbs());
        ak = a_next;
        g = g_next;
        h = h_next;
        res.iterations = it + 1;
        if (delta < 1e-12 * scale)
            break;
        if (!std::isfinite(delta))
            return std::nullopt;
    }

    res.p = h;

    // Residual check: P - (A'PA - A'PB (R + B'PB)^-1 B'PA + Q).
    const Matrix pa = res.p * a;
    const Matrix bt_p_b = b.transpose() * res.p * b;
    LuDecomposition<double> inner_lu(r + bt_p_b);
    if (!inner_lu.ok())
        return std::nullopt;
    const Matrix k = inner_lu.solve(b.transpose() * pa);
    const Matrix rhs = a.transpose() * pa -
        (a.transpose() * res.p * b) * k + q;
    res.residual = (res.p - rhs).frobeniusNorm() /
        std::max(1.0, res.p.frobeniusNorm());
    if (!(res.residual < 1e-6))
        return std::nullopt;

    // The solution must stabilize the closed loop.
    const Matrix a_cl = a - b * k;
    if (spectralRadius(a_cl) >= 1.0)
        return std::nullopt;
    return res;
}

Matrix
lqrGainFromDare(const Matrix &a, const Matrix &b, const Matrix &r,
                const Matrix &p)
{
    const Matrix bt_p = b.transpose() * p;
    return solve(r + bt_p * b, bt_p * a);
}

} // namespace mimoarch
