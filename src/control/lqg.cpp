#include "control/lqg.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/leastsq.hpp"
#include "linalg/riccati.hpp"
#include "linalg/solve.hpp"

namespace mimoarch {

namespace {

Matrix
diagFrom(const std::vector<double> &entries)
{
    return Matrix::diag(entries);
}

} // namespace

LqgServoController::LqgServoController(const StateSpaceModel &model,
                                       const LqgWeights &weights,
                                       const InputLimits &limits)
{
    auto made = tryMake(model, weights, limits);
    if (!made.ok())
        fatal(made.error().message);
    *this = made.take();
}

Result<LqgServoController>
LqgServoController::tryMake(const StateSpaceModel &model,
                            const LqgWeights &weights,
                            const InputLimits &limits)
{
    LqgServoController c;
    c.model_ = model;
    c.weights_ = weights;
    c.limits_ = limits;
    if (Status st = c.init(); !st.ok())
        return st.error();
    return c;
}

Status
LqgServoController::init()
{
    model_.validate();
    const size_t n = model_.stateDim();
    const size_t m = model_.numInputs();
    const size_t p = model_.numOutputs();

    if (weights_.outputWeights.size() != p ||
        weights_.inputWeights.size() != m) {
        return makeError(ErrorCode::InvalidArgument,
                         "LQG weights: need ", p, " output and ", m,
                         " input weights");
    }
    if (limits_.lo.size() != m || limits_.hi.size() != m) {
        return makeError(ErrorCode::InvalidArgument, "LQG limits: need ",
                         m, " per-input bounds");
    }
    if (p > m) {
        return makeError(ErrorCode::InvalidArgument,
                         "MIMO limitation: the number of outputs (", p,
                         ") cannot exceed the number of inputs (", m,
                         ")");
    }

    // Weights in scaled coordinates.
    const Matrix qy = model_.outputScaling.scaleWeight(
        diagFrom(weights_.outputWeights));
    const Matrix r = model_.inputScaling.scaleWeight(
        diagFrom(weights_.inputWeights));

    // Augmented system: state [x; u_prev; z], input v = Delta-u.
    //   x+     = A x + B (u_prev + v)
    //   u_prev+ = u_prev + v
    //   z+     = z - (C x + D (u_prev + v))          (reference enters
    //                                                 at runtime)
    const size_t na = n + m + p;
    Matrix a_aug(na, na);
    a_aug.setBlock(0, 0, model_.a);
    a_aug.setBlock(0, n, model_.b);
    a_aug.setBlock(n, n, Matrix::identity(m));
    a_aug.setBlock(n + m, 0, -model_.c);
    a_aug.setBlock(n + m, n, -model_.d);
    a_aug.setBlock(n + m, n + m, Matrix::identity(p));

    Matrix b_aug(na, m);
    b_aug.setBlock(0, 0, model_.b);
    b_aug.setBlock(n, 0, Matrix::identity(m));
    b_aug.setBlock(n + m, 0, -model_.d);

    // Cost: e_y' Qy e_y with e_y ~ C x + D u_prev, plus the integral
    // penalty and a small input-hold term for detectability.
    Matrix m_err(p, na);
    m_err.setBlock(0, 0, model_.c);
    m_err.setBlock(0, n, model_.d);
    Matrix q_aug = m_err.transpose() * qy * m_err;
    Matrix q_int = qy * weights_.integralFraction;
    q_aug.setBlock(n + m, n + m,
                   q_aug.block(n + m, n + m, p, p) + q_int);
    Matrix q_hold = r * weights_.inputHoldFraction;
    q_aug.setBlock(n, n, q_aug.block(n, n, m, m) + q_hold);

    const auto dare = solveDare(a_aug, b_aug, q_aug, r);
    if (!dare) {
        return makeError(
            ErrorCode::DareNotConverged,
            "LQG design failed: no stabilizing DARE solution for the "
            "augmented system (check weights and model stability)");
    }
    const Matrix k = lqrGainFromDare(a_aug, b_aug, r, dare->p);
    design_.kx = k.block(0, 0, m, n);
    design_.ku = k.block(0, n, m, m);
    design_.kz = k.block(0, n + m, m, p);
    design_.dareResidual = dare->residual;
    // Pseudo-inverse of Kz for back-calculation anti-windup:
    // (Kz' Kz)^-1 Kz' (Kz is m x p with m >= p and full column rank
    // whenever the integrators are effective).
    {
        const Matrix kzt_kz =
            design_.kz.transpose() * design_.kz +
            Matrix::identity(p) * 1e-9;
        design_.kzPinv = solve(kzt_kz, design_.kz.transpose());
    }

    // Steady-state Kalman filter on the plant model: the dual DARE.
    Matrix qn = model_.qn.empty() ? Matrix::identity(n) * 1e-3
                                  : model_.qn;
    Matrix rn = model_.rn.empty() ? Matrix::identity(p) * 1e-2
                                  : model_.rn;
    // Regularize: the estimator needs Rn > 0.
    rn = rn + Matrix::identity(p) * 1e-9;
    qn = qn + Matrix::identity(n) * 1e-9;
    const auto est = solveDare(model_.a.transpose(), model_.c.transpose(),
                               qn, rn);
    if (!est) {
        return makeError(
            ErrorCode::KalmanNotConverged,
            "LQG design failed: no stabilizing Kalman DARE solution "
            "(check the noise covariances)");
    }
    // L = A P C' (Rn + C P C')^-1.
    const Matrix pcov = est->p;
    const Matrix cpct = model_.c * pcov * model_.c.transpose() + rn;
    design_.kalmanGain =
        model_.a * pcov * model_.c.transpose() * inverse(cpct);

    // Default references: the scaled origin (physical operating point).
    y0Physical_ = Matrix(p, 1);
    for (size_t i = 0; i < p; ++i)
        y0Physical_[i] = model_.outputScaling.offset[i];
    setReference(y0Physical_);
    reset(Matrix::vector(std::vector<double>(m, 0.0)));
    allocWorkspace();
    return Status();
}

void
LqgServoController::allocWorkspace()
{
    const size_t n = model_.stateDim();
    const size_t m = model_.numInputs();
    const size_t p = model_.numOutputs();
    ws_.yScaled.resizeShape(p, 1);
    ws_.dx.resizeShape(n, 1);
    ws_.duPrev.resizeShape(m, 1);
    ws_.t1.resizeShape(m, 1);
    ws_.t2.resizeShape(m, 1);
    ws_.t3.resizeShape(m, 1);
    ws_.u.resizeShape(m, 1);
    ws_.uUnsat.resizeShape(m, 1);
    ws_.uPhys.resizeShape(m, 1);
    ws_.awDiff.resizeShape(m, 1);
    ws_.awCorr.resizeShape(p, 1);
    ws_.cx.resizeShape(p, 1);
    ws_.duFeed.resizeShape(p, 1);
    ws_.inno.resizeShape(p, 1);
    ws_.ax.resizeShape(n, 1);
    ws_.bu.resizeShape(n, 1);
    ws_.li.resizeShape(n, 1);
}

void
LqgServoController::computeTargets()
{
    // Solve [A-I B; C D] [x_ss; u_ss] = [0; y0] in ridge least squares.
    const size_t n = model_.stateDim();
    const size_t m = model_.numInputs();
    const size_t p = model_.numOutputs();
    Matrix lhs(n + p, n + m);
    lhs.setBlock(0, 0, model_.a - Matrix::identity(n));
    lhs.setBlock(0, n, model_.b);
    lhs.setBlock(n, 0, model_.c);
    lhs.setBlock(n, n, model_.d);
    Matrix rhs(n + p, 1);
    rhs.setBlock(n, 0, y0Scaled_);
    const Matrix sol = solveRidge(lhs, rhs, 1e-9);
    xSs_ = sol.block(0, 0, n, 1);
    uSs_ = sol.block(n, 0, m, 1);
}

void
LqgServoController::setReference(const Matrix &y0_physical)
{
    if (y0_physical.rows() != model_.numOutputs() ||
        y0_physical.cols() != 1) {
        fatal("setReference: expected ", model_.numOutputs(),
              " output targets");
    }
    y0Physical_ = y0_physical;
    y0Scaled_ = model_.outputScaling.toScaled(y0_physical);
    computeTargets();
}

void
LqgServoController::reset(const Matrix &u_initial_physical)
{
    const size_t n = model_.stateDim();
    const size_t m = model_.numInputs();
    const size_t p = model_.numOutputs();
    if (u_initial_physical.rows() != m)
        fatal("reset: expected ", m, " initial inputs");
    xHat_ = Matrix(n, 1);
    uPrev_ = model_.inputScaling.toScaled(u_initial_physical);
    zInt_ = Matrix(p, 1);
}

const Matrix &
LqgServoController::step(const Matrix &y_physical)
{
    if (y_physical.rows() != model_.numOutputs() ||
        y_physical.cols() != 1) {
        fatal("step: expected ", model_.numOutputs(), " outputs");
    }

    // Reject corrupt measurements: hold the last applied command and
    // keep the estimator/integrator untouched. One NaN sample must not
    // poison x_hat (every later step would then be NaN too).
    bool measurement_finite = true;
    for (size_t i = 0; i < y_physical.rows(); ++i)
        measurement_finite &= std::isfinite(y_physical[i]) != 0;
    if (!measurement_finite) {
        ++rejectedMeasurements_;
        model_.inputScaling.toPhysicalInto(ws_.uPhys, uPrev_);
        return ws_.uPhys;
    }

    model_.outputScaling.toScaledInto(ws_.yScaled, y_physical);
    const Matrix &y = ws_.yScaled;

    // Estimator measurement update is folded into the predict step
    // below (innovations form): first compute the new command from the
    // current estimate, then advance the estimate with it.
    //
    // Every block below keeps the per-element rounding sequence of the
    // original expression form (one product per gemv, negation and
    // subtraction in the original association order), so results are
    // bit-identical to the allocating version — the golden-trace
    // digests check exactly this.
    Matrix::subInto(ws_.dx, xHat_, xSs_);
    Matrix::subInto(ws_.duPrev, uPrev_, uSs_);
    Matrix::gemv(ws_.t1, design_.kx, ws_.dx);
    Matrix::gemv(ws_.t2, design_.ku, ws_.duPrev);
    Matrix::gemv(ws_.t3, design_.kz, zInt_);
    // v = ((-t1) - t2) - t3, then u = uPrev + v.
    for (size_t i = 0; i < ws_.u.rows(); ++i) {
        const double neg = -ws_.t1[i];
        const double vi1 = neg - ws_.t2[i];
        const double vi = vi1 - ws_.t3[i];
        ws_.u[i] = uPrev_[i] + vi;
    }

    // Saturate in physical units.
    ws_.uUnsat = ws_.u;
    model_.inputScaling.toPhysicalInto(ws_.uPhys, ws_.u);
    bool saturated = false;
    for (size_t i = 0; i < ws_.uPhys.rows(); ++i) {
        if (ws_.uPhys[i] < limits_.lo[i]) {
            ws_.uPhys[i] = limits_.lo[i];
            saturated = true;
        } else if (ws_.uPhys[i] > limits_.hi[i]) {
            ws_.uPhys[i] = limits_.hi[i];
            saturated = true;
        }
    }
    model_.inputScaling.toScaledInto(ws_.u, ws_.uPhys);

    // Mild back-calculation anti-windup: bleed a fraction of the
    // clipped input excess into the integrator. Full back-calculation
    // over-corrects here (the quantized plant re-excites it every
    // epoch); conditional integration below does the rest.
    if (saturated) {
        Matrix::subInto(ws_.awDiff, ws_.uUnsat, ws_.u);
        Matrix::gemv(ws_.awCorr, design_.kzPinv, ws_.awDiff);
        Matrix::axpy(zInt_, 0.1, ws_.awCorr);
    }

    // Kalman update with the measurement and the *applied* input.
    Matrix::gemv(ws_.cx, model_.c, xHat_);
    Matrix::gemv(ws_.duFeed, model_.d, ws_.u);
    for (size_t i = 0; i < ws_.inno.rows(); ++i) {
        const double t = y[i] - ws_.cx[i];
        ws_.inno[i] = t - ws_.duFeed[i];
    }
    lastInnovationNorm_ = ws_.inno.frobeniusNorm();
    Matrix::gemv(ws_.ax, model_.a, xHat_);
    Matrix::gemv(ws_.bu, model_.b, ws_.u);
    Matrix::gemv(ws_.li, design_.kalmanGain, ws_.inno);
    for (size_t i = 0; i < xHat_.rows(); ++i) {
        const double t = ws_.ax[i] + ws_.bu[i];
        xHat_[i] = t + ws_.li[i];
    }

    // Integrate the tracking error, matching the design's
    // z+ = z - y + y0; pause while saturated (conditional integration)
    // and keep a generous safety bound.
    if (!saturated) {
        for (size_t i = 0; i < zInt_.rows(); ++i) {
            const double t = y0Scaled_[i] - y[i];
            zInt_[i] += t;
        }
    }
    for (size_t i = 0; i < zInt_.rows(); ++i)
        zInt_[i] = std::clamp(zInt_[i], -100.0, 100.0);

    // Saturation watchdog: persistent saturation with a large tracking
    // error means the loop is locked into a wrong corner (the frozen
    // integrator cannot pull it out); re-initialize the estimator and
    // integrator so the servo re-approaches from the operating point.
    if (watchdogSteps_ > 0) {
        double rel_err = 0.0;
        for (size_t i = 0; i < y.rows(); ++i) {
            const double ref = y0Physical_[i];
            if (std::abs(ref) > 1e-12) {
                rel_err = std::max(
                    rel_err,
                    std::abs(y_physical[i] - ref) / std::abs(ref));
            }
        }
        if (saturated && rel_err > 0.15)
            ++satStreak_;
        else
            satStreak_ = 0;
        if (satStreak_ >= watchdogSteps_) {
            satStreak_ = 0;
            ++watchdogTrips_;
            xHat_.setZero();
            zInt_.setZero();
        }
    }

    uPrev_ = ws_.u;
    return ws_.uPhys;
}

bool
LqgServoController::stateFinite() const
{
    const auto all_finite = [](const Matrix &m) {
        for (size_t i = 0; i < m.size(); ++i) {
            if (!std::isfinite(m.data()[i]))
                return false;
        }
        return true;
    };
    return all_finite(xHat_) && all_finite(uPrev_) && all_finite(zInt_);
}

StateSpaceModel
LqgServoController::controllerRealization() const
{
    // Map y -> u around zero reference (scaled coordinates).
    // State xi = [x_hat; u_prev; z]:
    //   u      = u_prev + v,   v = -Kx x_hat - Ku u_prev - Kz z
    //   x_hat+ = A x_hat + B u + L (y - C x_hat - D u)
    //   u_prev+ = u
    //   z+     = z - y        (error integration with y0 = 0)
    const size_t n = model_.stateDim();
    const size_t m = model_.numInputs();
    const size_t p = model_.numOutputs();
    const Matrix l = design_.kalmanGain;

    // u = F xi with F = [-Kx, I - Ku, -Kz].
    Matrix f(m, n + m + p);
    f.setBlock(0, 0, -design_.kx);
    f.setBlock(0, n, Matrix::identity(m) - design_.ku);
    f.setBlock(0, n + m, -design_.kz);

    const Matrix bld = model_.b - l * model_.d; // x_hat gets (B - L D) u
    StateSpaceModel k;
    k.a = Matrix(n + m + p, n + m + p);
    // x_hat row: A x_hat - L C x_hat + (B - L D) u
    Matrix a_x(n, n + m + p);
    a_x.setBlock(0, 0, model_.a - l * model_.c);
    k.a.setBlock(0, 0, a_x);
    // add (B - L D) * F
    const Matrix bf = bld * f;
    for (size_t r2 = 0; r2 < n; ++r2)
        for (size_t c2 = 0; c2 < n + m + p; ++c2)
            k.a(r2, c2) += bf(r2, c2);
    // u_prev row: F
    k.a.setBlock(n, 0, f);
    // z row: z+ = z
    k.a.setBlock(n + m, n + m, Matrix::identity(p));

    k.b = Matrix(n + m + p, p);
    k.b.setBlock(0, 0, l);
    k.b.setBlock(n + m, 0, -Matrix::identity(p));

    k.c = f;
    k.d = Matrix(m, p);
    k.inputScaling = SignalScaling::identity(p);
    k.outputScaling = SignalScaling::identity(m);
    return k;
}

size_t
LqgServoController::storedFloats() const
{
    const auto count = [](const Matrix &mt) { return mt.size(); };
    return count(design_.kx) + count(design_.ku) + count(design_.kz) +
        count(design_.kalmanGain) + count(model_.a) + count(model_.b) +
        count(model_.c) + count(model_.d) + count(xSs_) + count(uSs_);
}

} // namespace mimoarch
