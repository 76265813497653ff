#include "control/statespace.hpp"

#include <cmath>

#include "linalg/solve.hpp"

namespace mimoarch {

SignalScaling
SignalScaling::identity(size_t n)
{
    SignalScaling s;
    s.offset.assign(n, 0.0);
    s.scale.assign(n, 1.0);
    return s;
}

SignalScaling
SignalScaling::fit(const Matrix &data)
{
    const size_t t = data.rows();
    const size_t n = data.cols();
    if (t < 2)
        fatal("SignalScaling::fit needs at least two samples");
    SignalScaling s;
    s.offset.assign(n, 0.0);
    s.scale.assign(n, 1.0);
    for (size_t c = 0; c < n; ++c) {
        double mean = 0.0;
        for (size_t r = 0; r < t; ++r)
            mean += data(r, c);
        mean /= static_cast<double>(t);
        double var = 0.0;
        for (size_t r = 0; r < t; ++r) {
            const double dv = data(r, c) - mean;
            var += dv * dv;
        }
        var /= static_cast<double>(t - 1);
        s.offset[c] = mean;
        s.scale[c] = std::sqrt(std::max(var, 1e-12));
    }
    return s;
}

Matrix
SignalScaling::toScaled(const Matrix &physical) const
{
    if (physical.cols() == 1 && physical.rows() == channels()) {
        Matrix out(channels(), 1);
        for (size_t i = 0; i < channels(); ++i)
            out[i] = (physical[i] - offset[i]) / scale[i];
        return out;
    }
    if (physical.cols() != channels())
        panic("toScaled: expected ", channels(), " channels");
    Matrix out(physical.rows(), physical.cols());
    for (size_t r = 0; r < physical.rows(); ++r)
        for (size_t c = 0; c < channels(); ++c)
            out(r, c) = (physical(r, c) - offset[c]) / scale[c];
    return out;
}

Matrix
SignalScaling::toPhysical(const Matrix &scaled) const
{
    if (scaled.cols() == 1 && scaled.rows() == channels()) {
        Matrix out(channels(), 1);
        for (size_t i = 0; i < channels(); ++i)
            out[i] = scaled[i] * scale[i] + offset[i];
        return out;
    }
    if (scaled.cols() != channels())
        panic("toPhysical: expected ", channels(), " channels");
    Matrix out(scaled.rows(), scaled.cols());
    for (size_t r = 0; r < scaled.rows(); ++r)
        for (size_t c = 0; c < channels(); ++c)
            out(r, c) = scaled(r, c) * scale[c] + offset[c];
    return out;
}

Matrix
SignalScaling::scaleWeight(const Matrix &physical_weight) const
{
    if (!physical_weight.isSquare() ||
        physical_weight.rows() != channels()) {
        panic("scaleWeight: weight must be ", channels(), "x", channels());
    }
    Matrix s = Matrix::diag(scale);
    return s * physical_weight * s;
}

void
StateSpaceModel::validate() const
{
    const size_t n = stateDim();
    const size_t m = numInputs();
    const size_t p = numOutputs();
    if (!a.isSquare() || b.rows() != n || c.cols() != n ||
        d.rows() != p || d.cols() != m) {
        panic("StateSpaceModel: inconsistent shapes A=", a.toString(),
              " B=", b.rows(), "x", b.cols(), " C=", c.rows(), "x",
              c.cols(), " D=", d.rows(), "x", d.cols());
    }
    if (!qn.empty() && (qn.rows() != n || qn.cols() != n))
        panic("StateSpaceModel: Qn shape");
    if (!rn.empty() && (rn.rows() != p || rn.cols() != p))
        panic("StateSpaceModel: Rn shape");
}

Matrix
StateSpaceModel::simulate(const Matrix &u, const Matrix &x0) const
{
    validate();
    if (u.cols() != numInputs())
        panic("simulate: input has ", u.cols(), " columns, expected ",
              numInputs());
    if (x0.rows() != stateDim() || x0.cols() != 1)
        panic("simulate: bad initial state");
    Matrix x = x0;
    Matrix y(u.rows(), numOutputs());
    for (size_t t = 0; t < u.rows(); ++t) {
        const Matrix ut = u.row(t).transpose();
        const Matrix yt = c * x + d * ut;
        for (size_t i = 0; i < numOutputs(); ++i)
            y(t, i) = yt[i];
        x = a * x + b * ut;
    }
    return y;
}

CMatrix
StateSpaceModel::transferAt(std::complex<double> z) const
{
    validate();
    const size_t n = stateDim();
    CMatrix zi_a(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c2 = 0; c2 < n; ++c2)
            zi_a(r, c2) = (r == c2 ? z : std::complex<double>(0)) - a(r, c2);
    const CMatrix res = solve(zi_a, toComplex(b));
    return toComplex(c) * res + toComplex(d);
}

} // namespace mimoarch
