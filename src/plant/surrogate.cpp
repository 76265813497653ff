#include "plant/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "core/design_flow.hpp"
#include "linalg/leastsq.hpp"
#include "sysid/arx.hpp"

namespace mimoarch {

namespace {

void
hashMatrix(Fnv64 &h, const Matrix &m)
{
    h.u64(m.rows()).u64(m.cols());
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < m.cols(); ++c)
            h.f64(m(r, c));
}

void
hashScaling(Fnv64 &h, const SignalScaling &s)
{
    h.u64(s.offset.size());
    for (double v : s.offset)
        h.f64(v);
    for (double v : s.scale)
        h.f64(v);
}

void
hashDoubles(Fnv64 &h, const std::vector<double> &v)
{
    h.u64(v.size());
    for (double x : v)
        h.f64(x);
}

} // namespace

uint64_t
SurrogateModel::digest() const
{
    Fnv64 h;
    h.str(appName);
    hashMatrix(h, dynamics.a);
    hashMatrix(h, dynamics.b);
    hashMatrix(h, dynamics.c);
    hashMatrix(h, dynamics.d);
    hashMatrix(h, dynamics.qn);
    hashMatrix(h, dynamics.rn);
    hashScaling(h, dynamics.inputScaling);
    hashScaling(h, dynamics.outputScaling);
    hashDoubles(h, noiseSigma);
    hashDoubles(h, fit.meanRelError);
    hashDoubles(h, fit.maxRelError);
    hashMatrix(h, l2Coef);
    h.f64(ipcPerIpsOverFreq).f64(energyPerPowerSecond).f64(epochSeconds);
    h.f64(ipsFloor).f64(powerFloor);
    return h.value();
}

SurrogateModel
calibrateSurrogate(const AppSpec &app, const KnobSpace &knobs,
                   const ExperimentConfig &cfg)
{
    const size_t epochs = cfg.sysidEpochsPerApp;
    if (epochs < 32)
        fatal("calibrateSurrogate: need >= 32 calibration epochs, have ",
              epochs);
    // The design flow's identification experiment on the cycle-level
    // substrate, under the calibration's own excitation waveform.
    SimPlant plant(app, knobs);
    const SysIdRun run = MimoControllerDesign(knobs, cfg).collectRecord(
        plant, epochs, sysidSeed("surrogate-cal", app.name));
    const Matrix &u = run.u;
    const Matrix &y = run.y;
    const size_t inputs = knobs.numInputs();

    SurrogateModel m;
    m.appName = app.name;
    m.epochSeconds = cfg.epochSeconds;
    m.dynamics = identify(u, y, cfg.arxConfig());
    m.fit = validateModel(m.dynamics, u, y);

    // Residual noise per output, in the model's scaled coordinates:
    // what the identified dynamics cannot explain becomes the
    // surrogate's per-epoch output noise. The observer-form transient
    // from the zero initial state is excluded.
    const Matrix u_scaled = m.dynamics.inputScaling.toScaled(u);
    const Matrix y_scaled = m.dynamics.outputScaling.toScaled(y);
    const Matrix y_hat = m.dynamics.simulate(
        u_scaled, Matrix(m.dynamics.stateDim(), 1));
    const size_t skip = std::min<size_t>(epochs / 4, 100);
    m.noiseSigma.assign(kNumPlantOutputs, 0.0);
    for (size_t k = 0; k < kNumPlantOutputs; ++k) {
        double mean = 0.0;
        for (size_t t = skip; t < epochs; ++t)
            mean += y_scaled(t, k) - y_hat(t, k);
        mean /= static_cast<double>(epochs - skip);
        double var = 0.0;
        for (size_t t = skip; t < epochs; ++t) {
            const double r = y_scaled(t, k) - y_hat(t, k) - mean;
            var += r * r;
        }
        var /= static_cast<double>(epochs - skip - 1);
        m.noiseSigma[k] = std::sqrt(std::max(var, 0.0));
    }

    // L2 MPKI: ridge-fit affine response to the physical knob vector.
    Matrix phi(epochs, 1 + inputs);
    Matrix rhs(epochs, 1);
    for (size_t t = 0; t < epochs; ++t) {
        phi(t, 0) = 1.0;
        for (size_t i = 0; i < inputs; ++i)
            phi(t, 1 + i) = u(t, i);
        rhs(t, 0) = run.l2Mpki[t];
    }
    m.l2Coef = solveRidge(phi, rhs, 1e-8);

    // IPC ~= alpha * IPS / freq and energy ~= beta * power: one-
    // parameter least squares each (minimizing sum (aux - coef * x)^2).
    double ipc_num = 0.0, ipc_den = 0.0;
    double e_num = 0.0, e_den = 0.0;
    double ips_mean = 0.0, power_mean = 0.0;
    for (size_t t = 0; t < epochs; ++t) {
        const double x = y(t, kOutputIps) / u(t, 0);
        ipc_num += run.ipc[t] * x;
        ipc_den += x * x;
        const double p = y(t, kOutputPower);
        e_num += run.energyJ[t] * p;
        e_den += p * p;
        ips_mean += y(t, kOutputIps);
        power_mean += y(t, kOutputPower);
    }
    m.ipcPerIpsOverFreq = ipc_den > 0.0 ? ipc_num / ipc_den : 0.0;
    m.energyPerPowerSecond = e_den > 0.0 ? e_num / e_den : 0.0;
    ips_mean /= static_cast<double>(epochs);
    power_mean /= static_cast<double>(epochs);
    m.ipsFloor = 0.01 * std::max(ips_mean, 0.0);
    m.powerFloor = 0.01 * std::max(power_mean, 0.0);
    return m;
}

SurrogateDynamics::SurrogateDynamics(const SurrogateModel &model,
                                     uint64_t seed)
    : model_(&model), rng_(seed)
{
    model.dynamics.validate();
    if (model.noiseSigma.size() != model.dynamics.numOutputs())
        fatal("SurrogateDynamics: need one noise sigma per output");
    if (model.dynamics.numOutputs() < kNumPlantOutputs)
        fatal("SurrogateDynamics: need IPS and power outputs");
    x_.assign(model.dynamics.stateDim(), 0.0);
    xNext_.assign(model.dynamics.stateDim(), 0.0);
    uScaled_.assign(model.dynamics.numInputs(), 0.0);
    yPhys_ = Matrix(model.dynamics.numOutputs(), 1);
}

template <class Shape>
const Matrix &
SurrogateDynamics::stepAt(const Matrix &u_physical)
{
    const StateSpaceModel &d = model_->dynamics;
    const size_t n = Shape::states(d);
    const size_t ni = Shape::inputs(d);
    const size_t no = Shape::outputs(d);
    if (u_physical.rows() != ni || u_physical.cols() != 1)
        fatal("SurrogateDynamics::step: expected ", ni, " inputs");
    // Each element in one pass, with the rounding sequence of the
    // matrix-vector form (DESIGN.md §9).
    for (size_t k = 0; k < ni; ++k) {
        uScaled_[k] = (u_physical[k] - d.inputScaling.offset[k]) /
            d.inputScaling.scale[k];
    }

    // y = (C x + D u) + v, v ~ N(0, diag(noiseSigma)^2), drawn in
    // output order.
    const double *const c = d.c.data().data();
    const double *const dd = d.d.data().data();
    for (size_t i = 0; i < no; ++i) {
        double cx = 0.0;
        for (size_t k = 0; k < n; ++k) {
            const double t = c[i * n + k] * x_[k];
            cx += t;
        }
        double du = 0.0;
        for (size_t k = 0; k < ni; ++k) {
            const double t = dd[i * ni + k] * uScaled_[k];
            du += t;
        }
        double y = cx + du;
        const double noise = model_->noiseSigma[i] * rng_.normal();
        y += noise;
        const double t = y * d.outputScaling.scale[i];
        yPhys_[i] = t + d.outputScaling.offset[i];
    }

    // x <- A x + B u.
    const double *const a = d.a.data().data();
    const double *const b = d.b.data().data();
    for (size_t i = 0; i < n; ++i) {
        double ax = 0.0;
        for (size_t k = 0; k < n; ++k) {
            const double t = a[i * n + k] * x_[k];
            ax += t;
        }
        double bu = 0.0;
        for (size_t k = 0; k < ni; ++k) {
            const double t = b[i * ni + k] * uScaled_[k];
            bu += t;
        }
        xNext_[i] = ax + bu;
    }
    std::swap(x_, xNext_);

    if (yPhys_[kOutputIps] < model_->ipsFloor)
        yPhys_[kOutputIps] = model_->ipsFloor;
    if (yPhys_[kOutputPower] < model_->powerFloor)
        yPhys_[kOutputPower] = model_->powerFloor;
    return yPhys_;
}

const Matrix &
SurrogateDynamics::step(const Matrix &u_physical)
{
    if (PaperShape::matches(model_->dynamics))
        return stepAt<PaperShape>(u_physical);
    return stepAt<RuntimeShape>(u_physical);
}

SurrogatePlant::SurrogatePlant(
    std::shared_ptr<const SurrogateModel> model,
    const KnobSpace &knob_space, uint64_t seed_salt)
    : model_(std::move(model)), knobs_(knob_space),
      dyn_(*model_,
           [&] {
               Fnv64 h;
               h.str("surrogate-plant").str(model_->appName)
                   .u64(seed_salt);
               return h.value();
           }())
{
    if (knobs_.numInputs() != model_->dynamics.numInputs()) {
        fatal("SurrogatePlant: knob space has ", knobs_.numInputs(),
              " inputs but the surrogate was calibrated with ",
              model_->dynamics.numInputs());
    }
    u_ = Matrix(knobs_.numInputs(), 1);
}

void
SurrogatePlant::setL2Partition(uint32_t way_mask)
{
    if (way_mask == 0)
        fatal("SurrogatePlant::setL2Partition needs >=1 way");
    const uint32_t ways =
        static_cast<uint32_t>(__builtin_popcount(way_mask));
    // Largest setting whose L2 ways fit in the partition; setting 0
    // (2 ways) is the floor so a 1-way partition still runs.
    unsigned cap = 0;
    for (unsigned i = 0; i < kCacheSizeSettings.size(); ++i)
        if (kCacheSizeSettings[i].l2Ways <= ways)
            cap = i;
    cacheSettingCap_ = ways >= kCacheSizeSettings.back().l2Ways ? ~0u : cap;
}

const Matrix &
SurrogatePlant::step(const KnobSettings &settings)
{
    KnobSettings applied = settings;
    if (applied.cacheSetting > cacheSettingCap_)
        applied.cacheSetting = cacheSettingCap_;
    knobs_.toVectorInto(u_, applied);
    current_ = applied;
    const Matrix &y = dyn_.step(u_);

    // Auxiliary sensors from the calibrated per-app fits.
    double l2 = model_->l2Coef[0];
    for (size_t i = 0; i < knobs_.numInputs(); ++i)
        l2 += model_->l2Coef[1 + i] * u_[i];
    lastL2Mpki_ = std::max(l2, 0.0);
    lastIpc_ = model_->ipcPerIpsOverFreq * y[kOutputIps] / u_[0];
    lastEnergyJ_ = model_->energyPerPowerSecond * y[kOutputPower];

    // Cumulative accounting: an epoch is epochSeconds of wall time at
    // IPS billions-of-instructions per second.
    totalEnergyJ_ += lastEnergyJ_;
    elapsedS_ += model_->epochSeconds;
    totalInstrB_ += y[kOutputIps] * model_->epochSeconds;
    return y;
}

} // namespace mimoarch
