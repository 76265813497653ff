/**
 * @file
 * Golden-trace regression tests: fixed-seed runs must reproduce the
 * recorded RunSummary and EpochTrace digests bit-for-bit. This pins
 * the determinism contract end to end — any change to the plant, the
 * design flow, the controllers, the optimizer or the harness that
 * moves a single bit of any series shows up here. The cases:
 *
 *   - mcf, lbm and povray under MIMO and Heuristic: 2-input tracking
 *     from the paper's off-target start;
 *   - the Fig. 9 loop (MIMO + optimizer, k = 2, from Table III's
 *     baseline settings) on gamess at cycle level, and on milc at
 *     analytic fidelity for 3000 epochs, in which the phase detector
 *     restarts the search three times;
 *   - 3-input MIMO tracking (Fig. 10's knob space) on povray;
 *   - Decoupled tracking (the two SISO loops of Figs. 11 and 12) on
 *     povray from the off-target start, which pins identifySisoModels.
 *
 * The controller and surrogate steps no longer run the allocating
 * operators: each builds its output elements in one pass over the
 * model's row-major storage. The digests in
 * tests/data/golden_traces.txt were recorded on the operator-based
 * implementation and have deliberately NOT been regenerated: passing
 * here proves the steps preserve the original arithmetic bit for bit
 * (the accumulation-order contract documented in matrix.hpp).
 *
 * The digests are exact double bit patterns, so they are specific to
 * a toolchain/libm. Regenerate after an intentional numeric change
 * with:
 *
 *     MIMOARCH_UPDATE_GOLDEN=1 ./test_golden_trace
 *
 * which rewrites tests/data/golden_traces.txt in the source tree.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/controllers.hpp"
#include "core/design_flow.hpp"
#include "core/harness.hpp"
#include "exec/design_cache.hpp"
#include "exec/plant_factory.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

const char *const kGoldenFile =
    MIMOARCH_TEST_DATA_DIR "/golden_traces.txt";

/** The configuration the golden runs were recorded under. */
ExperimentConfig
goldenConfig()
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 300;
    cfg.validationEpochsPerApp = 150;
    return cfg;
}

struct Digests
{
    uint64_t summary = 0;
    uint64_t trace = 0;
    size_t retargets = 0; //!< Epochs whose IPS reference moved.
};

/** One golden run; the defaults are the original six cases' loop. */
struct Case
{
    const char *app;
    const char *arch; //!< Golden-file label: "MIMO", "Heuristic", ...
    bool heuristic = false;
    bool decoupled = false;
    bool withRob = false;   //!< Fig. 10's 3-input knob space.
    bool optimizer = false; //!< MIMO + optimizer, k = 2 (Fig. 9).
    PlantFidelity fidelity = PlantFidelity::CycleLevel;
    size_t epochs = 600;
};

/** One fixed-seed serial run: its two digests and retarget count. */
Digests
runCase(const Case &c)
{
    ExperimentConfig cfg = goldenConfig();
    cfg.fidelity = c.fidelity;
    const KnobSpace knobs(c.withRob);

    std::unique_ptr<ArchController> owned;
    if (c.decoupled) {
        const auto siso = exec::DesignCache::instance().sisoModels(cfg);
        const MimoControllerDesign flow(knobs, cfg);
        owned = flow.buildDecoupled(siso->cacheToIps, siso->freqToPower);
    } else if (!c.heuristic) {
        const auto design =
            exec::DesignCache::instance().design(knobs, cfg);
        const MimoControllerDesign flow(knobs, cfg);
        owned = flow.buildController(*design);
    } else {
        owned = std::make_unique<HeuristicArchController>(
            knobs, HeuristicArchController::Tuning{}, cfg.ipsReference,
            cfg.powerReference);
    }
    owned->setReference(cfg.ipsReference, cfg.powerReference);

    const auto plant =
        exec::makePlant(Spec2006Suite::byName(c.app), knobs, cfg);
    DriverConfig dcfg;
    dcfg.epochs = c.epochs;
    dcfg.errorSkipEpochs = 100;
    dcfg.useOptimizer = c.optimizer;
    dcfg.optimizer.metricExponent = 2;
    dcfg.fidelity = c.fidelity;
    EpochDriver driver(*plant, *owned, dcfg);
    KnobSettings init;
    if (c.optimizer) {
        // Table III's best-static configuration, as fig09 starts.
        init.freqLevel = 8;
        init.cacheSetting = 2;
        init.robPartitions = 3;
    } else {
        init.freqLevel = 3;
        init.cacheSetting = 1;
    }
    const RunSummary sum = driver.run(init);
    const std::vector<double> &ref = driver.trace().refIps;
    size_t retargets = 0;
    for (size_t t = 1; t < ref.size(); ++t)
        retargets += ref[t] != ref[t - 1];
    return {digest(sum), digest(driver.trace()), retargets};
}

// Append new cases at the end: the golden file is keyed by app/arch,
// and its existing lines stay byte-identical.
const std::vector<Case> kCases = {
    {.app = "mcf", .arch = "MIMO"},
    {.app = "mcf", .arch = "Heuristic", .heuristic = true},
    {.app = "lbm", .arch = "MIMO"},
    {.app = "lbm", .arch = "Heuristic", .heuristic = true},
    {.app = "povray", .arch = "MIMO"},
    {.app = "povray", .arch = "Heuristic", .heuristic = true},
    {.app = "gamess", .arch = "MIMO+opt", .optimizer = true},
    {.app = "milc", .arch = "MIMO+opt@analytic", .optimizer = true,
     .fidelity = PlantFidelity::Analytic, .epochs = 3000},
    {.app = "povray", .arch = "MIMO-3input", .withRob = true},
    {.app = "povray", .arch = "Decoupled", .decoupled = true},
};

std::map<std::string, Digests>
loadGolden()
{
    std::map<std::string, Digests> golden;
    std::ifstream in(kGoldenFile);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string app, arch;
        Digests d;
        ls >> app >> arch >> std::hex >> d.summary >> d.trace;
        if (!ls.fail())
            golden[app + "/" + arch] = d;
    }
    return golden;
}

TEST(GoldenTrace, SerialRunsReproduceRecordedDigests)
{
    if (std::getenv("MIMOARCH_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(kGoldenFile);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenFile;
        out << "# <app> <arch> <summary-digest> <trace-digest>\n"
            << "# Fixed-seed serial runs (see golden_trace_test.cpp);\n"
            << "# regenerate with MIMOARCH_UPDATE_GOLDEN=1 after an\n"
            << "# intentional numeric change.\n";
        for (const Case &c : kCases) {
            const Digests d = runCase(c);
            out << c.app << " " << c.arch << " " << std::hex << d.summary
                << " " << d.trace << std::dec << "\n";
        }
        GTEST_SKIP() << "golden digests rewritten to " << kGoldenFile;
    }

    const std::map<std::string, Digests> golden = loadGolden();
    ASSERT_EQ(golden.size(), kCases.size())
        << "incomplete golden file " << kGoldenFile
        << " — regenerate with MIMOARCH_UPDATE_GOLDEN=1";

    for (const Case &c : kCases) {
        const std::string name = std::string(c.app) + "/" + c.arch;
        const Digests got = runCase(c);
        const auto it = golden.find(name);
        ASSERT_NE(it, golden.end()) << name;
        EXPECT_EQ(got.summary, it->second.summary)
            << name << " RunSummary drifted";
        EXPECT_EQ(got.trace, it->second.trace)
            << name << " EpochTrace drifted";
        // An optimizer case whose search never moves the reference
        // would pin nothing the tracking cases do not.
        if (c.optimizer) {
            EXPECT_GT(got.retargets, 0u) << name << " never retargeted";
        }
    }
}

TEST(GoldenTrace, RepeatedRunsAreBitIdenticalWithinProcess)
{
    // Independent of the recorded file: two fresh runs of the same
    // case must agree exactly (no hidden global state).
    const Digests a = runCase(kCases[0]);
    const Digests b = runCase(kCases[0]);
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_EQ(a.trace, b.trace);
    const Digests h1 = runCase(kCases[5]);
    const Digests h2 = runCase(kCases[5]);
    EXPECT_EQ(h1.summary, h2.summary);
    EXPECT_EQ(h1.trace, h2.trace);
}

} // namespace
} // namespace mimoarch
