#include "sysid/arx.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "linalg/leastsq.hpp"

namespace mimoarch {

ArxModel
fitArx(const Matrix &u_physical, const Matrix &y_physical,
       const ArxConfig &config)
{
    if (u_physical.rows() != y_physical.rows())
        fatal("fitArx: input and output records differ in length");
    const size_t k = config.order;
    if (k == 0)
        fatal("fitArx: order must be >= 1");
    const size_t t_len = u_physical.rows();
    const size_t n_in = u_physical.cols();
    const size_t n_out = y_physical.cols();
    const size_t n_reg = k * n_out + (k + 1) * n_in;
    if (t_len < k + n_reg + 8)
        fatal("fitArx: record too short (", t_len, " samples) for ",
              n_reg, " regressors");

    ArxModel model;
    model.order = k;
    model.inputScaling = SignalScaling::fit(u_physical);
    model.outputScaling = SignalScaling::fit(y_physical);
    const Matrix u = model.inputScaling.toScaled(u_physical);
    const Matrix y = model.outputScaling.toScaled(y_physical);

    // One regression row per epoch t = k .. T-1.
    const size_t rows = t_len - k;
    Matrix phi(rows, n_reg);
    Matrix target(rows, n_out);
    for (size_t r = 0; r < rows; ++r) {
        const size_t t = r + k;
        size_t col = 0;
        for (size_t i = 1; i <= k; ++i)
            for (size_t o = 0; o < n_out; ++o)
                phi(r, col++) = y(t - i, o);
        for (size_t j = 0; j <= k; ++j)
            for (size_t m = 0; m < n_in; ++m)
                phi(r, col++) = u(t - j, m);
        for (size_t o = 0; o < n_out; ++o)
            target(r, o) = y(t, o);
    }

    const Matrix theta = solveRidge(phi, target, config.ridge);

    // Unpack coefficient blocks: theta(r, c) maps regressor r to output
    // c, so A_i(out, src) = theta(row_of_src, out).
    size_t row = 0;
    model.aCoef.assign(k, Matrix(n_out, n_out));
    for (size_t i = 0; i < k; ++i) {
        for (size_t src = 0; src < n_out; ++src)
            for (size_t out = 0; out < n_out; ++out)
                model.aCoef[i](out, src) = theta(row + src, out);
        row += n_out;
    }
    model.bCoef.assign(k + 1, Matrix(n_out, n_in));
    for (size_t j = 0; j <= k; ++j) {
        for (size_t src = 0; src < n_in; ++src)
            for (size_t out = 0; out < n_out; ++out)
                model.bCoef[j](out, src) = theta(row + src, out);
        row += n_in;
    }

    // Residual (innovation) covariance.
    const Matrix resid = phi * theta - target;
    Matrix cov(n_out, n_out);
    const double denom = std::max<double>(
        1.0, static_cast<double>(rows) - static_cast<double>(n_reg));
    for (size_t o1 = 0; o1 < n_out; ++o1) {
        for (size_t o2 = 0; o2 < n_out; ++o2) {
            double s = 0.0;
            for (size_t r2 = 0; r2 < rows; ++r2)
                s += resid(r2, o1) * resid(r2, o2);
            cov(o1, o2) = s / denom;
        }
    }
    model.residualCov = cov;
    return model;
}

Matrix
ArxModel::simulate(const Matrix &u_physical) const
{
    if (u_physical.cols() != numInputs())
        fatal("ArxModel::simulate: wrong input width");
    const size_t k = order;
    const size_t t_len = u_physical.rows();
    const size_t n_out = numOutputs();
    const Matrix u = inputScaling.toScaled(u_physical);
    Matrix y(t_len, n_out);
    for (size_t t = 0; t < t_len; ++t) {
        Matrix yt(n_out, 1);
        for (size_t i = 1; i <= k; ++i) {
            if (t < i)
                continue;
            yt += aCoef[i - 1] * y.row(t - i).transpose();
        }
        for (size_t j = 0; j <= k; ++j) {
            if (t < j)
                continue;
            yt += bCoef[j] * u.row(t - j).transpose();
        }
        for (size_t o = 0; o < n_out; ++o)
            y(t, o) = yt[o];
    }
    return outputScaling.toPhysical(y);
}

StateSpaceModel
realize(const ArxModel &arx)
{
    const size_t k = arx.order;
    const size_t n_out = arx.numOutputs();
    const size_t n_in = arx.numInputs();
    if (k == 0)
        fatal("realize: empty ARX model");
    const size_t n = k * n_out;

    StateSpaceModel ss;
    ss.a = Matrix(n, n);
    ss.b = Matrix(n, n_in);
    ss.c = Matrix(n_out, n);
    ss.d = arx.bCoef[0];
    ss.inputScaling = arx.inputScaling;
    ss.outputScaling = arx.outputScaling;

    // Block observer form:
    //   x_m(t+1) = x_{m+1}(t) + A_m x_1(t) + (B_m + A_m B_0) u(t)
    //   y(t)     = x_1(t) + B_0 u(t)
    for (size_t m = 1; m <= k; ++m) {
        const size_t r0 = (m - 1) * n_out;
        ss.a.setBlock(r0, 0, arx.aCoef[m - 1]);
        if (m < k)
            ss.a.setBlock(r0, m * n_out, Matrix::identity(n_out));
        ss.b.setBlock(r0, 0,
                      arx.bCoef[m] + arx.aCoef[m - 1] * arx.bCoef[0]);
    }
    ss.c.setBlock(0, 0, Matrix::identity(n_out));

    // Unpredictability: innovations e(t) enter the state through
    // G = [A_1; ...; A_k] and the output directly.
    Matrix g(n, n_out);
    for (size_t m = 1; m <= k; ++m)
        g.setBlock((m - 1) * n_out, 0, arx.aCoef[m - 1]);
    ss.rn = arx.residualCov;
    ss.qn = g * arx.residualCov * g.transpose();
    ss.validate();
    return ss;
}

StateSpaceModel
identify(const Matrix &u_physical, const Matrix &y_physical,
         const ArxConfig &config)
{
    return realize(fitArx(u_physical, y_physical, config));
}

} // namespace mimoarch
