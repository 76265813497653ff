#include "core/design_flow.hpp"

#include <algorithm>
#include <cmath>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "sysid/arx.hpp"
#include "sysid/waveform.hpp"
#include "telemetry/telemetry.hpp"

namespace mimoarch {

namespace {

/**
 * Run fn(i) for every identification record i < n through parallelFor
 * on every hardware thread, each call one "sysid.record" trace span.
 * @p fn must write only what record i owns.
 */
template <typename Fn>
void
collectRecords(size_t n, const Fn &fn)
{
    const unsigned threads = hardwareThreads();
    parallelFor(n, threads, [&](size_t i) {
        telemetry::Span span("sysid.record", "design", nullptr, "record",
                             static_cast<int64_t>(i));
        fn(i);
    });
#if defined(__GLIBC__)
    // Each helper thread allocated from its own malloc arena, and an
    // arena keeps freed pages below the trim threshold. Measured after
    // the 2-input bench-config design (Release, 4 vCPU): 4.6 MB
    // resident when serial, 5.2 MB on 4 threads, 4.8 MB with this
    // trim, which releases free pages in every arena.
    if (std::min<size_t>(n, threads) > 1)
        malloc_trim(0);
#endif
}

} // namespace

uint64_t
sysidSeed(const std::string &purpose, const std::string &app_name)
{
    // Stable per-(purpose, app) excitation seed: adding or removing an
    // application from a set must not shift any other app's waveform,
    // and repeated flows (any thread, any order) replay identically.
    Fnv64 h;
    h.str(purpose).str(app_name);
    return h.value();
}

MimoControllerDesign::MimoControllerDesign(const KnobSpace &knobs,
                                           const ExperimentConfig &config)
    : knobs_(knobs), config_(config)
{}

SysIdRun
MimoControllerDesign::collectRecord(SimPlant &plant, const Matrix &u) const
{
    plant.warmup(config_.warmupEpochs);

    const size_t epochs = u.rows();
    SysIdRun rec;
    rec.u = u;
    rec.y = Matrix(epochs, kNumPlantOutputs);
    rec.l2Mpki.resize(epochs);
    rec.ipc.resize(epochs);
    rec.energyJ.resize(epochs);
    for (size_t t = 0; t < epochs; ++t) {
        const KnobSettings s = knobs_.quantize(u.row(t).transpose());
        const Matrix &y = plant.step(s);
        rec.y(t, kOutputIps) = y[kOutputIps];
        rec.y(t, kOutputPower) = y[kOutputPower];
        rec.l2Mpki[t] = plant.lastL2Mpki();
        rec.ipc[t] = plant.lastIpc();
        rec.energyJ[t] = plant.lastEnergyJoules();
    }
    return rec;
}

SysIdRun
MimoControllerDesign::collectRecord(SimPlant &plant, size_t epochs,
                                    uint64_t waveform_seed) const
{
    WaveformConfig wcfg;
    wcfg.lengthEpochs = epochs;
    wcfg.seed = waveform_seed;
    return collectRecord(plant, generateExcitation(knobs_.channels(), wcfg));
}

std::vector<SysIdRecord>
MimoControllerDesign::alignOperatingPoints(
    const std::vector<SysIdRecord> &recs)
{
    if (recs.empty())
        fatal("alignOperatingPoints: no records");
    const size_t n_out = recs.front().y.cols();

    // Global output means.
    std::vector<double> global(n_out, 0.0);
    size_t total_rows = 0;
    for (const SysIdRecord &r : recs) {
        for (size_t t = 0; t < r.y.rows(); ++t)
            for (size_t o = 0; o < n_out; ++o)
                global[o] += r.y(t, o);
        total_rows += r.y.rows();
    }
    for (double &g : global)
        g /= static_cast<double>(total_rows);

    // Shift each record's outputs onto the global mean.
    std::vector<SysIdRecord> aligned = recs;
    for (SysIdRecord &r : aligned) {
        std::vector<double> mean(n_out, 0.0);
        for (size_t t = 0; t < r.y.rows(); ++t)
            for (size_t o = 0; o < n_out; ++o)
                mean[o] += r.y(t, o);
        for (size_t o = 0; o < n_out; ++o)
            mean[o] /= static_cast<double>(r.y.rows());
        for (size_t t = 0; t < r.y.rows(); ++t)
            for (size_t o = 0; o < n_out; ++o)
                r.y(t, o) += global[o] - mean[o];
    }
    return aligned;
}

SysIdRecord
MimoControllerDesign::concatenate(const std::vector<SysIdRecord> &recs)
{
    if (recs.empty())
        fatal("concatenate: no identification records");
    SysIdRecord all = recs.front();
    for (size_t i = 1; i < recs.size(); ++i) {
        all.u = vcat(all.u, recs[i].u);
        all.y = vcat(all.y, recs[i].y);
    }
    return all;
}

MimoDesignResult
MimoControllerDesign::design(const std::vector<AppSpec> &training,
                             const std::vector<AppSpec> &validation) const
{
    if (training.empty())
        fatal("design: no training applications");

    // 1. Identification experiments: the training records, then the
    // validation records, all collected at once. Each writes only its
    // own slot, so the fit below sees them in index order whatever the
    // schedule.
    std::vector<SysIdRecord> recs(training.size());
    std::vector<SysIdRecord> vrecs(validation.size());
    collectRecords(recs.size() + vrecs.size(), [&](size_t i) {
        if (i < recs.size()) {
            SimPlant plant(training[i], knobs_);
            recs[i] = collectRecord(plant, config_.sysidEpochsPerApp,
                                    sysidSeed("sysid-train",
                                              training[i].name));
            return;
        }
        const size_t v = i - recs.size();
        SimPlant plant(validation[v], knobs_, {}, /*seed_salt=*/17);
        vrecs[v] = collectRecord(plant, config_.validationEpochsPerApp,
                                 sysidSeed("sysid-validate",
                                           validation[v].name));
    });
    const SysIdRecord all = concatenate(alignOperatingPoints(recs));

    // 2. Fit + realize the model.
    StateSpaceModel model = identify(all.u, all.y, config_.arxConfig());
    // Estimator-side uncertainty guardband (see ExperimentConfig).
    model.rn = model.rn * config_.measurementNoiseInflation;

    MimoDesignResult result;
    result.model = model;
    result.weights = config_.lqgWeights(knobs_.hasRob());

    // 3. Validate on the held-out applications; estimate uncertainty.
    if (!vrecs.empty()) {
        const SysIdRecord vall = concatenate(vrecs);
        result.validation = validateModel(model, vall.u, vall.y);
    }

    // Guardbands: Table III uses fixed 50%/30% (3x the observed errors).
    result.guardbands = {config_.ipsGuardband, config_.powerGuardband};

    // 4. Design + RSA loop: raise input weights until robustly stable.
    // A DARE that does not converge for the current weights is handled
    // the same way as an RSA failure — adjust the weights and redesign
    // (Fig. 3) — rather than aborting the flow.
    const InputLimits limits{knobs_.lowerLimits(), knobs_.upperLimits()};
    RobustStabilityAnalyzer rsa;
    bool any_design = false;
    for (int attempt = 0; attempt < 10; ++attempt) {
        auto ctrl = LqgServoController::tryMake(model, result.weights,
                                                limits);
        if (!ctrl.ok()) {
            warn("design attempt ", attempt, ": ", ctrl.error().message,
                 "; raising input weights and retrying");
            for (double &wi : result.weights.inputWeights)
                wi *= 2.0;
            ++result.weightAdjustments;
            continue;
        }
        any_design = true;
        // The relative guardbands are the small-gain weights as they
        // stand: a y -> (1 + delta) y perturbation in physical units is
        // the same relative perturbation of the model's scaled
        // coordinates. (The scaling offset is a constant bias, which
        // the integral action rejects and which cannot destabilize the
        // loop.)
        result.rsa = rsa.analyze(model,
                                 ctrl.value().controllerRealization(),
                                 result.guardbands);
        if (result.rsa.ok())
            return result;
        for (double &wi : result.weights.inputWeights)
            wi *= 2.0;
        ++result.weightAdjustments;
    }
    if (!any_design) {
        fatal("design: no stabilizing LQG design found after ",
              result.weightAdjustments, " weight adjustments");
    }
    warn("design: robust stability not reached after ",
         result.weightAdjustments, " weight adjustments (peak gain ",
         result.rsa.peakGain, "); returning the most cautious design");
    return result;
}

std::unique_ptr<MimoArchController>
MimoControllerDesign::buildController(const MimoDesignResult &result) const
{
    return std::make_unique<MimoArchController>(result.model,
                                                result.weights, knobs_);
}

std::pair<StateSpaceModel, StateSpaceModel>
MimoControllerDesign::identifySisoModels(
    const std::vector<AppSpec> &training) const
{
    if (knobs_.hasRob())
        fatal("identifySisoModels: Decoupled is a 2-input design");

    // One record per (channel, training app), channel-major: the
    // excited channel, the output it drives and the other input's
    // fixed value. Cache (channel 1) -> IPS with the frequency at the
    // 1.3 GHz baseline; frequency (channel 0) -> power with the cache
    // at full size.
    struct Channel
    {
        size_t excited;
        size_t output;
        double fixedOther;
    };
    const Channel channels[2] = {{1, kOutputIps, 1.3},
                                 {0, kOutputPower, 4.0}};
    const size_t n_apps = training.size();
    std::vector<std::vector<SysIdRecord>> recs(
        2, std::vector<SysIdRecord>(n_apps));
    collectRecords(2 * n_apps, [&](size_t i) {
        const Channel &ch = channels[i / n_apps];
        const AppSpec &app = training[i % n_apps];
        WaveformConfig wcfg;
        wcfg.lengthEpochs = config_.sysidEpochsPerApp;
        wcfg.seed = sysidSeed("sysid-siso-" + std::to_string(ch.excited),
                              app.name);
        Matrix u(wcfg.lengthEpochs, 2, ch.fixedOther);
        u.setBlock(0, ch.excited,
                   generateExcitation({knobs_.channels()[ch.excited]},
                                      wcfg));
        SimPlant plant(app, knobs_);
        const SysIdRun run = collectRecord(plant, u);
        SysIdRecord &rec = recs[i / n_apps][i % n_apps];
        rec.u = run.u.col(ch.excited);
        rec.y = run.y.col(ch.output);
    });

    const auto fit = [&](size_t c) {
        const SysIdRecord all = concatenate(recs[c]);
        return identify(all.u, all.y, config_.arxConfig());
    };
    return {fit(0), fit(1)};
}

std::unique_ptr<DecoupledArchController>
MimoControllerDesign::buildDecoupled(
    const StateSpaceModel &cache_to_ips,
    const StateSpaceModel &freq_to_power) const
{
    LqgWeights cache_w;
    cache_w.outputWeights = {config_.ipsWeight};
    cache_w.inputWeights = {config_.cacheWeight};
    LqgWeights freq_w;
    freq_w.outputWeights = {config_.powerWeight};
    freq_w.inputWeights = {config_.freqWeight};
    return std::make_unique<DecoupledArchController>(
        cache_to_ips, freq_to_power, cache_w, freq_w, knobs_);
}

} // namespace mimoarch
