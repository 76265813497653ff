/**
 * @file
 * The controller design flow of Fig. 3: select inputs/outputs and
 * weights, run black-box identification experiments on the training
 * applications, fit and realize the model, validate it on the
 * validation applications to estimate uncertainty, design the LQG
 * controller, and run Robust Stability Analysis — raising the input
 * weights and redesigning when RSA fails (§IV-B4).
 */

#pragma once

#include <functional>
#include <vector>

#include "control/lqg.hpp"
#include "control/robust.hpp"
#include "core/controllers.hpp"
#include "core/experiment_config.hpp"
#include "core/plant.hpp"
#include "sysid/validate.hpp"
#include "workload/appspec.hpp"

namespace mimoarch {

/**
 * Stable excitation-waveform seed for one identification experiment: a
 * pure hash of (purpose, application), never a shared counter — so a
 * set's composition does not shift the other apps' waveforms, and the
 * flow replays bit-identically on any thread in any order. The design
 * flow itself has no other randomness, which is what makes the
 * process-wide DesignCache (src/exec) sound.
 */
uint64_t sysidSeed(const std::string &purpose,
                   const std::string &app_name);

/** One identification record: applied inputs and measured outputs. */
struct SysIdRecord
{
    Matrix u; //!< T x I physical inputs.
    Matrix y; //!< T x O physical outputs.
};

/**
 * One run of the identification experiment: its record plus the
 * auxiliary sensors of the same T epochs, which the analytic tier's
 * calibration fits. The flows that fit (u, y) alone keep only the
 * SysIdRecord part: held through design()'s fit, the series raised
 * loopbench chip's peak RSS by 0.17 MB (Release, 4-vCPU x86-64 VM).
 */
struct SysIdRun : SysIdRecord
{
    std::vector<double> l2Mpki;  //!< L2 misses per kinstr.
    std::vector<double> ipc;     //!< Instructions per cycle.
    std::vector<double> energyJ; //!< Epoch energy, joules.
};

/** Everything the design flow produced, for inspection and reports. */
struct MimoDesignResult
{
    StateSpaceModel model;
    LqgWeights weights;              //!< Final (possibly adjusted).
    ValidationReport validation;     //!< Model-vs-system errors.
    std::vector<double> guardbands;  //!< Relative, per output.
    RobustStabilityResult rsa;       //!< For the final design.
    int weightAdjustments = 0;       //!< RSA-failure redesign count.
};

/** Fig. 3 implementation. */
class MimoControllerDesign
{
  public:
    MimoControllerDesign(const KnobSpace &knobs,
                         const ExperimentConfig &config);

    /**
     * The black-box identification experiment, the only code that runs
     * it: warm @p plant up for the config's warmupEpochs, drive it with
     * the excitation @p u (T x I physical inputs, one row per epoch,
     * quantized onto the knobs) and record its outputs and auxiliary
     * sensors each epoch.
     */
    SysIdRun collectRecord(SimPlant &plant, const Matrix &u) const;

    /**
     * The experiment under the seeded excitation waveform of every knob
     * channel, @p epochs long.
     */
    SysIdRun collectRecord(SimPlant &plant, size_t epochs,
                           uint64_t waveform_seed) const;

    /** Concatenate identification records. */
    static SysIdRecord concatenate(const std::vector<SysIdRecord> &recs);

    /**
     * Align the per-record output operating points before pooling:
     * each record's outputs are shifted so its mean matches the global
     * mean. Different applications sit at very different (IPS, power)
     * levels; without alignment that app-identity variance leaks into
     * the fitted dynamics as spurious slow modes and biased gains.
     */
    static std::vector<SysIdRecord>
    alignOperatingPoints(const std::vector<SysIdRecord> &recs);

    /**
     * Run the full flow. The training and validation records are
     * collected concurrently on short-lived threads (up to one per
     * hardware thread), each into its own slot; the fit, validation
     * and RSA then run on the calling thread in record order, so the
     * result is bit-identical to a serial flow. Each record is a
     * "sysid.record" trace span.
     */
    MimoDesignResult design(const std::vector<AppSpec> &training,
                            const std::vector<AppSpec> &validation) const;

    /** Build the runtime controller from a design. */
    std::unique_ptr<MimoArchController>
    buildController(const MimoDesignResult &result) const;

    /**
     * Identify the two SISO models for the Decoupled architecture:
     * cache -> IPS (frequency fixed at the baseline) and
     * frequency -> power (cache fixed at full size). Each of its two
     * channels x training-app records is one collectRecord() run whose
     * other input holds its fixed value; the records are collected
     * concurrently, like design()'s, and each channel's records are
     * fitted in app order.
     */
    std::pair<StateSpaceModel, StateSpaceModel>
    identifySisoModels(const std::vector<AppSpec> &training) const;

    /** Build the Decoupled controller from the SISO models. */
    std::unique_ptr<DecoupledArchController>
    buildDecoupled(const StateSpaceModel &cache_to_ips,
                   const StateSpaceModel &freq_to_power) const;

  private:
    KnobSpace knobs_;
    ExperimentConfig config_;
};

} // namespace mimoarch
