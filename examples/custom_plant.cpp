/**
 * @file
 * Controlling your own system: implement the Plant interface and reuse
 * the identification + LQG machinery on something that is not the
 * bundled simulator. Here the "plant" is a small analytic model of a
 * server whose knobs are the same (frequency, cache), demonstrating
 * that the library is not tied to the cycle-level simulator.
 *
 * Build & run:  ./examples/custom_plant
 */

#include <cstdio>

#include "common/random.hpp"
#include "control/lqg.hpp"
#include "core/harness.hpp"
#include "sysid/arx.hpp"
#include "sysid/waveform.hpp"

using namespace mimoarch;

namespace {

/** An analytic 2-knob plant with first-order dynamics and noise. */
class AnalyticPlant : public Plant
{
  public:
    AnalyticPlant() : knobs_(false), rng_(7) {}

    const KnobSpace &knobs() const override { return knobs_; }

    const Matrix &
    step(const KnobSettings &settings) override
    {
        settings_ = settings;
        const double f = DvfsController::freqAtLevel(settings.freqLevel);
        const double c = settings.cacheSetting + 1.0;
        // First-order approach to the static map + sensor noise.
        const double ips_ss = 0.9 * f + 0.12 * c;
        const double pw_ss = 0.25 + 0.75 * f + 0.06 * c;
        ips_ += 0.5 * (ips_ss - ips_);
        pw_ += 0.5 * (pw_ss - pw_);
        ++epochs_;
        const double ips = ips_ + rng_.normal(0.0, 0.02);
        const double pw = pw_ + rng_.normal(0.0, 0.02);
        energy_ += pw * 50e-6;
        work_ += ips * 50e-6;
        y_[kOutputIps] = ips;
        y_[kOutputPower] = pw;
        return y_;
    }

    KnobSettings currentSettings() const override { return settings_; }
    double lastL2Mpki() const override { return 1.0; }
    double lastIpc() const override { return ips_; }
    double lastEnergyJoules() const override { return pw_ * 50e-6; }
    double totalEnergyJoules() const override { return energy_; }

    double
    elapsedSeconds() const override
    {
        return static_cast<double>(epochs_) * 50e-6;
    }

    double totalInstructionsB() const override { return work_; }

  private:
    KnobSpace knobs_;
    Rng rng_;
    KnobSettings settings_;
    Matrix y_ = Matrix(2, 1); //!< step() result buffer.
    double ips_ = 1.0;
    double pw_ = 1.0;
    double energy_ = 0.0;
    double work_ = 0.0;
    uint64_t epochs_ = 0;
};

} // namespace

int
main()
{
    AnalyticPlant plant;
    const KnobSpace &knobs = plant.knobs();

    // Black-box identification of the custom plant.
    WaveformConfig wcfg;
    wcfg.lengthEpochs = 1000;
    const Matrix u = generateExcitation(knobs.channels(), wcfg);
    Matrix y(u.rows(), 2);
    for (size_t t = 0; t < u.rows(); ++t) {
        const Matrix yt = plant.step(knobs.quantize(u.row(t).transpose()));
        y(t, 0) = yt[0];
        y(t, 1) = yt[1];
    }
    ArxConfig acfg;
    acfg.order = 2;
    const StateSpaceModel model = identify(u, y, acfg);
    std::printf("identified a dimension-%zu model of the custom plant\n",
                model.stateDim());

    // LQG design with the paper's weight semantics.
    LqgWeights w;
    w.outputWeights = {10.0, 10000.0};
    w.inputWeights = {1000.0, 50.0};
    MimoArchController controller(model, w, knobs);
    controller.setReference(1.8, 1.9);

    DriverConfig dcfg;
    dcfg.epochs = 600;
    dcfg.recordTrace = true;
    dcfg.errorSkipEpochs = 100;
    EpochDriver driver(plant, controller, dcfg);
    const RunSummary sum = driver.run(KnobSettings{});

    const EpochTrace &tr = driver.trace();
    std::printf("tracking (1.8, 1.9): final y = (%.2f, %.2f), "
                "avg errors %.1f%% / %.1f%%\n",
                tr.ips.back(), tr.power.back(), sum.avgIpsErrorPct,
                sum.avgPowerErrorPct);
    std::printf("knobs settled at %.1f GHz, cache setting %u\n",
                DvfsController::freqAtLevel(tr.freqLevel.back()),
                tr.cacheSetting.back());
    return 0;
}
