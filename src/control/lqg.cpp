#include "control/lqg.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

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
    uPhys_ = Matrix(m, 1);
    uExcess_.assign(m, 0.0);
    inno_.assign(p, 0.0);
    xNext_.assign(n, 0.0);
    return Status();
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
    // This check and init()'s validation of the model, weights and
    // limits are what let step() index its buffers unchecked.
    const size_t m = model_.numInputs();
    if (u_initial_physical.rows() != m || u_initial_physical.cols() != 1)
        fatal("reset: expected ", m, " initial inputs");
    xHat_.assign(model_.stateDim(), 0.0);
    uPrev_.resize(m);
    const SignalScaling &in = model_.inputScaling;
    for (size_t i = 0; i < m; ++i)
        uPrev_[i] = (u_initial_physical[i] - in.offset[i]) / in.scale[i];
    zInt_.assign(model_.numOutputs(), 0.0);
}

const Matrix &
LqgServoController::step(const Matrix &y_physical)
{
    const size_t n = model_.stateDim();
    const size_t m = model_.numInputs();
    const size_t p = model_.numOutputs();
    if (y_physical.rows() != p || y_physical.cols() != 1)
        fatal("step: expected ", p, " outputs");
    const SignalScaling &in = model_.inputScaling;
    const SignalScaling &out = model_.outputScaling;
    double *const x_hat = xHat_.data();
    double *const u_prev = uPrev_.data();
    double *const z_int = zInt_.data();

    // Reject corrupt measurements: hold the last applied command and
    // keep the estimator/integrator untouched. One NaN sample must not
    // poison x_hat (every later step would then be NaN too).
    bool measurement_finite = true;
    for (size_t i = 0; i < p; ++i)
        measurement_finite &= std::isfinite(y_physical[i]) != 0;
    if (!measurement_finite) {
        ++rejectedMeasurements_;
        for (size_t i = 0; i < m; ++i) {
            const double t = u_prev[i] * in.scale[i];
            uPhys_[i] = t + in.offset[i];
        }
        return uPhys_;
    }

    // Estimator measurement update is folded into the predict step
    // below (innovations form): first compute the new command from the
    // current estimate, then advance the estimate with it.
    //
    // Every dot product starts from +0.0 and accumulates over ascending
    // k with one rounding per multiply and per add, and every other
    // operation keeps the association of the matrix-vector form, so
    // results are bit-identical to it (DESIGN.md §9) — the golden-trace
    // digests and tests/control/servo_step_reference_test.cpp check
    // exactly this.
    //
    // Command: v = ((-Kx (x_hat - x_ss)) - Ku (u_prev - u_ss)) - Kz z,
    // u = u_prev + v, saturated in physical units.
    const double *const kx = design_.kx.data().data();
    const double *const ku = design_.ku.data().data();
    const double *const kz = design_.kz.data().data();
    const double *const x_ss = xSs_.data().data();
    const double *const u_ss = uSs_.data().data();
    bool saturated = false;
    for (size_t i = 0; i < m; ++i) {
        double t1 = 0.0;
        for (size_t k = 0; k < n; ++k) {
            const double dx = x_hat[k] - x_ss[k];
            const double t = kx[i * n + k] * dx;
            t1 += t;
        }
        double t2 = 0.0;
        for (size_t k = 0; k < m; ++k) {
            const double du = u_prev[k] - u_ss[k];
            const double t = ku[i * m + k] * du;
            t2 += t;
        }
        double t3 = 0.0;
        for (size_t k = 0; k < p; ++k) {
            const double t = kz[i * p + k] * z_int[k];
            t3 += t;
        }
        const double neg = -t1;
        const double v1 = neg - t2;
        const double v = v1 - t3;
        const double u_unsat = u_prev[i] + v;
        const double t = u_unsat * in.scale[i];
        double phys = t + in.offset[i];
        if (phys < limits_.lo[i]) {
            phys = limits_.lo[i];
            saturated = true;
        } else if (phys > limits_.hi[i]) {
            phys = limits_.hi[i];
            saturated = true;
        }
        uPhys_[i] = phys;
        uExcess_[i] = u_unsat;
    }
    // The applied command, rescaled, becomes u_prev: every element of
    // the command above has read the old one.
    for (size_t i = 0; i < m; ++i) {
        const double t = uPhys_[i] - in.offset[i];
        const double u = t / in.scale[i];
        uExcess_[i] -= u;
        u_prev[i] = u;
    }

    // Mild back-calculation anti-windup: bleed a fraction of the
    // clipped input excess into the integrator. Full back-calculation
    // over-corrects here (the quantized plant re-excites it every
    // epoch); conditional integration below does the rest.
    if (saturated) {
        const double *const kz_pinv = design_.kzPinv.data().data();
        for (size_t i = 0; i < p; ++i) {
            double corr = 0.0;
            for (size_t k = 0; k < m; ++k) {
                const double t = kz_pinv[i * m + k] * uExcess_[k];
                corr += t;
            }
            const double t = 0.1 * corr;
            z_int[i] += t;
        }
    }

    // Kalman innovation with the measurement and the *applied* input,
    // inno = (y - C x_hat) - D u. The integrator follows the design's
    // z+ = z - y + y0, paused while saturated (conditional
    // integration), within a generous safety bound.
    const double *const c = model_.c.data().data();
    const double *const d = model_.d.data().data();
    const double *const y0 = y0Scaled_.data().data();
    double inno_sq = 0.0;
    for (size_t i = 0; i < p; ++i) {
        const double y = (y_physical[i] - out.offset[i]) / out.scale[i];
        double cx = 0.0;
        for (size_t k = 0; k < n; ++k) {
            const double t = c[i * n + k] * x_hat[k];
            cx += t;
        }
        double du = 0.0;
        for (size_t k = 0; k < m; ++k) {
            const double t = d[i * m + k] * u_prev[k];
            du += t;
        }
        const double t = y - cx;
        const double inno = t - du;
        inno_[i] = inno;
        const double sq = inno * inno;
        inno_sq += sq;
        if (!saturated) {
            const double e = y0[i] - y;
            z_int[i] += e;
        }
        z_int[i] = std::clamp(z_int[i], -100.0, 100.0);
    }
    lastInnovationSq_ = inno_sq;

    // x_hat+ = (A x_hat + B u) + L inno.
    const double *const a = model_.a.data().data();
    const double *const b = model_.b.data().data();
    const double *const l = design_.kalmanGain.data().data();
    for (size_t i = 0; i < n; ++i) {
        double ax = 0.0;
        for (size_t k = 0; k < n; ++k) {
            const double t = a[i * n + k] * x_hat[k];
            ax += t;
        }
        double bu = 0.0;
        for (size_t k = 0; k < m; ++k) {
            const double t = b[i * m + k] * u_prev[k];
            bu += t;
        }
        double li = 0.0;
        for (size_t k = 0; k < p; ++k) {
            const double t = l[i * p + k] * inno_[k];
            li += t;
        }
        const double t = ax + bu;
        xNext_[i] = t + li;
    }
    std::swap(xHat_, xNext_);

    // Saturation watchdog: persistent saturation with a large tracking
    // error means the loop is locked into a wrong corner (the frozen
    // integrator cannot pull it out); re-initialize the estimator and
    // integrator so the servo re-approaches from the operating point.
    if (watchdogSteps_ > 0) {
        // Only a saturated step reads the tracking error.
        double rel_err = 0.0;
        for (size_t i = 0; saturated && i < p; ++i) {
            const double ref = y0Physical_[i];
            if (std::abs(ref) > 1e-12) {
                rel_err = std::max(
                    rel_err, std::abs(y_physical[i] - ref) / std::abs(ref));
            }
        }
        if (saturated && rel_err > 0.15)
            ++satStreak_;
        else
            satStreak_ = 0;
        if (satStreak_ >= watchdogSteps_) {
            satStreak_ = 0;
            ++watchdogTrips_;
            std::fill(xHat_.begin(), xHat_.end(), 0.0);
            std::fill(zInt_.begin(), zInt_.end(), 0.0);
        }
    }
    return uPhys_;
}

bool
LqgServoController::stateFinite() const
{
    const auto all_finite = [](const std::vector<double> &v) {
        return std::all_of(v.begin(), v.end(),
                           [](double e) { return std::isfinite(e); });
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
