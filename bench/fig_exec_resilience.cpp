/**
 * @file
 * Execution-resilience campaign: the proof bench for the fault-tolerant
 * sweep layer (src/exec/resilient.hpp, DESIGN.md §11). Three legs:
 *
 *   clean    — the reference sweep, serial, no faults.
 *   chaos    — the same sweep under seeded chaos injection (thrown
 *              exceptions, stalls, invalidated results) at 1, 2 and 8
 *              workers. Retries re-derive everything from jobSeed, so
 *              every leg must digest bit-identical to clean.
 *   resume   — a "killed" sweep (only half the jobs ran before the
 *              process died) resumed from its journal: the missing
 *              jobs re-run, the journaled ones are restored, and the
 *              digest again matches clean.
 *
 * Exit status is the proof: nonzero on any digest mismatch.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

using namespace mimoarch;
using namespace mimoarch::bench;

namespace {

const char *kJournalPath = "fig_exec_resilience.journal";

const std::vector<std::pair<std::string, std::string>> kJobs = {
    {"mcf", "MIMO"},    {"mcf", "Heuristic"},
    {"povray", "MIMO"}, {"povray", "Heuristic"},
    {"namd", "MIMO"},   {"namd", "Heuristic"},
    {"milc", "MIMO"},   {"milc", "Heuristic"},
};

std::vector<exec::JobKey>
campaignKeys(size_t n)
{
    std::vector<exec::JobKey> keys;
    for (size_t i = 0; i < n; ++i)
        keys.push_back({kJobs[i].first, kJobs[i].second, 0, 0});
    return keys;
}

/** One campaign job: a 700-epoch tracking run, digested bit-exactly. */
uint64_t
runJob(const exec::JobContext &ctx, const ExperimentConfig &cfg,
       const std::shared_ptr<const MimoDesignResult> &design)
{
    const KnobSpace knobs(false);
    std::unique_ptr<ArchController> ctrl;
    if (ctx.key.controller == "MIMO") {
        const MimoControllerDesign flow(knobs, cfg);
        ctrl = flow.buildController(*design);
    } else {
        ctrl = std::make_unique<HeuristicArchController>(
            knobs, HeuristicArchController::Tuning{}, cfg.ipsReference,
            cfg.powerReference);
    }
    ctrl->setReference(cfg.ipsReference, cfg.powerReference);

    SimPlant plant(Spec2006Suite::byName(ctx.key.app), knobs);
    DriverConfig dcfg;
    dcfg.epochs = 700;
    dcfg.recordTrace = true;
    dcfg.errorSkipEpochs = 100;
    dcfg.cancel = &ctx.cancel;
    EpochDriver driver(plant, *ctrl, dcfg);
    const RunSummary sum = driver.run(offTargetStart());
    Fnv64 h;
    h.u64(digest(sum)).u64(digest(driver.trace()));
    return h.value();
}

struct Leg
{
    std::string label;
    std::vector<uint64_t> digests;
    exec::SweepReport report;
};

Leg
runLeg(const std::string &label, unsigned workers,
       const exec::ResilientPolicy &policy, size_t first_n,
       const ExperimentConfig &cfg,
       const std::shared_ptr<const MimoDesignResult> &design)
{
    exec::SweepOptions opt;
    opt.jobs = workers;
    opt.resilient = policy;
    exec::SweepRunner runner(opt);
    Leg leg;
    leg.label = label;
    auto outcome = runner.mapJobs<uint64_t>(
        campaignKeys(first_n), benchFingerprint(),
        [&](const exec::JobContext &ctx) {
            return runJob(ctx, cfg, design);
        });
    leg.digests = std::move(outcome.results);
    leg.report = std::move(outcome.report);
    return leg;
}

} // namespace

int
main(int argc, char **argv)
{
    exec::SweepOptions user_opt = benchSweepOptions(argc, argv);
    requireCycleLevel(user_opt, "the chaos campaign checks golden digests "
                                "recorded at cycle level");
    (void)user_opt; // Flags are validated; the campaign fixes its legs.
    banner("Exec resilience: chaos-equivalence and journal resume");
    const ExperimentConfig cfg = benchConfig();
    const auto design = cachedDesign(false);
    const size_t n = kJobs.size();

    exec::ChaosConfig chaos;
    chaos.seed = 0xC4A05;
    chaos.exceptionRate = 0.20;
    chaos.delayRate = 0.10;
    chaos.invalidRate = 0.15;
    chaos.delayMs = 5;

    // Leg 1: the clean serial reference.
    exec::ResilientPolicy clean_policy;
    const Leg clean =
        runLeg("clean serial", 1, clean_policy, n, cfg, design);

    // Leg 2: chaos campaign at 1, 2 and 8 workers.
    exec::ResilientPolicy chaos_policy;
    chaos_policy.chaos = chaos;
    chaos_policy.maxAttempts = 6; // Outlast repeated injections.
    std::vector<Leg> legs;
    for (unsigned workers : {1u, 2u, 8u}) {
        legs.push_back(runLeg("chaos @" + std::to_string(workers) + "w",
                              workers, chaos_policy, n, cfg, design));
    }

    // Leg 3: "kill" a sweep after half the jobs by only submitting
    // half, journaled; then resume the full sweep from the journal.
    std::remove(kJournalPath);
    exec::ResilientPolicy journal_policy;
    journal_policy.resumePath = kJournalPath;
    (void)runLeg("journal half", 2, journal_policy, n / 2, cfg, design);
    legs.push_back(
        runLeg("resume full", 2, journal_policy, n, cfg, design));
    const exec::SweepReport &resume_report = legs.back().report;
    std::remove(kJournalPath);

    // Verdicts: every leg must match the clean reference bit for bit.
    CsvTable table({"leg", "jobs", "retries", "timeouts",
                    "chaos_injections", "resumed", "digest_match"});
    std::printf("%-14s %6s %8s %14s %8s %s\n", "leg", "jobs", "retries",
                "chaos-injects", "resumed", "digests");
    int failures = 0;
    const auto emit = [&](const Leg &leg) {
        bool match = leg.digests.size() == clean.digests.size();
        for (size_t i = 0; match && i < n; ++i)
            match = leg.digests[i] == clean.digests[i];
        if (!match)
            ++failures;
        std::printf("%-14s %6zu %8llu %14llu %8zu %s\n",
                    leg.label.c_str(), leg.report.jobs,
                    static_cast<unsigned long long>(leg.report.retries),
                    static_cast<unsigned long long>(
                        leg.report.chaosInjections),
                    leg.report.resumedFromJournal,
                    match ? "== clean" : "MISMATCH");
        table.addRow({leg.label, std::to_string(leg.report.jobs),
                      std::to_string(leg.report.retries),
                      std::to_string(leg.report.timeouts),
                      std::to_string(leg.report.chaosInjections),
                      std::to_string(leg.report.resumedFromJournal),
                      match ? "1" : "0"});
    };
    for (const Leg &leg : legs)
        emit(leg);

    // The resume leg must actually have been a resume: half the jobs
    // restored from the journal, the other half freshly run.
    if (resume_report.resumedFromJournal != n / 2) {
        std::printf("ERROR: resume leg restored %zu jobs from the "
                    "journal, expected %zu\n",
                    resume_report.resumedFromJournal, n / 2);
        ++failures;
    }

    table.writeFile("fig_exec_resilience.csv");
    if (failures == 0) {
        std::printf("# all legs digest bit-identical to the clean "
                    "serial sweep despite injected faults.\n");
    } else {
        std::printf("# %d leg(s) FAILED the digest-equivalence "
                    "check.\n", failures);
    }
    return failures == 0 ? 0 : 1;
}
