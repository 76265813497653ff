/**
 * @file
 * loopbench: the end-to-end benchmark of the closed control loop.
 *
 *   loopbench --workload NAME --seed N --seconds S --trace 0|1
 *             --expected FILE [--trace-file FILE] [--record JOBS]
 *
 * One process runs one workload. Every workload is the fig09-style
 * loop (MIMO + optimizer, k = 2, from Table III's baseline settings)
 * or, on `chip`, exec::runChipJob's lock-step chip. Jobs run one at a
 * time on one worker thread through the entry points the figure
 * benches use: exec::SweepRunner::mapJobs around EpochDriver::run, and
 * exec::runChipJob.
 *
 * A run times the cold set-up (the design flow, plus surrogate
 * calibration on `analytic`) three times, and after each one runs jobs
 * for a third of --seconds; it runs at least one job of each kind.
 * Job j of a workload is a pure function of (workload, j, --seed):
 * the seed only salts the plants (and keys the chip job), so the
 * set-up does the same work for every seed.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 runs each job
 * twice, untraced and then wrapped in the timing decorators of
 * trace.hpp, and reports the per-layer metrics; the two runs of a job
 * must digest bit-identically.
 *
 * Every job's digest (and, on the cycle tier, its modelled simulator
 * counts) is checked against FILE when FILE records that workload and
 * seed. --record JOBS prints such records for the first JOBS jobs.
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chip/chip.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "core/design_flow.hpp"
#include "core/harness.hpp"
#include "exec/chip_job.hpp"
#include "exec/design_cache.hpp"
#include "exec/plant_factory.hpp"
#include "exec/sweep.hpp"
#include "sim/memhier.hpp"
#include "trace.hpp"
#include "workload/spec_suite.hpp"
#include "workload/synthetic_stream.hpp"

using namespace mimoarch;
using loopbench::EpochClock;
using loopbench::LatencyHistogram;
using loopbench::LayerTime;
using loopbench::nowNs;
using loopbench::SpanLog;
using loopbench::TimedController;
using loopbench::TimedPlant;

namespace {

/** Cold set-ups timed per run; setup_s is their median. */
constexpr int kSetupReps = 3;
/** Span capacity of the traced run's in-memory log. */
constexpr size_t kSpanCapacity = size_t{1} << 18;

struct Workload
{
    const char *name;
    PlantFidelity fidelity;
    bool chip;
    /** One app per job kind, or one app per core on `chip`. */
    std::vector<std::string> apps;
    /** Controlled epochs per job (lock-step chip epochs on `chip`). */
    size_t epochs;
    /**
     * Time each job kind by its fastest job instead of its median one.
     * Only analytic jobs, tens of ms long, split into a fast and a slow
     * cluster as the host's speed swings (NOISE.md); the median of two
     * clusters jumps between them from run to run.
     */
    bool byFastestJob;
};

// Why these: BENCHMARK.json and README.md. BENCHMARK.json gates only
// analytic and chip, which between them reach every layer; the two
// cycle workloads stay runnable by name (NOISE.md says why).
const std::vector<Workload> kWorkloads = {
    {"cycle-compute", PlantFidelity::CycleLevel, false,
     {"gamess", "milc", "cactusADM", "povray"}, 300, false},
    {"cycle-memory", PlantFidelity::CycleLevel, false,
     {"mcf", "libquantum", "omnetpp", "lbm"}, 600, false},
    {"analytic", PlantFidelity::Analytic, false,
     {"gamess", "povray", "mcf", "lbm"}, 50000, true},
    {"chip", PlantFidelity::CycleLevel, true,
     {"gamess", "mcf", "povray", "libquantum"}, 600, false},
};

/** Table III's best-static configuration (the figure benches' start). */
KnobSettings
baselineSettings()
{
    KnobSettings s;
    s.freqLevel = 8;
    s.cacheSetting = 2;
    s.robPartitions = 3;
    return s;
}

/**
 * The figure benches' experiment configuration (bench/bench_common.hpp).
 * A copy, so that a change to the figure benches does not silently
 * change the work this benchmark measures.
 */
ExperimentConfig
experimentConfig(const Workload &w)
{
    ExperimentConfig cfg;
    cfg.sysidEpochsPerApp = 800;
    cfg.validationEpochsPerApp = 400;
    cfg.fidelity = w.fidelity;
    if (w.chip) {
        cfg.chip.nCores = static_cast<unsigned>(w.apps.size());
        cfg.chip.l2Ways = 8;
        cfg.chip.arbiterEnabled = true;
        cfg.chip.arbiterPeriodEpochs = 200;
        cfg.chip.powerEnvelopeW =
            0.75 * static_cast<double>(w.apps.size()) * cfg.powerReference;
    }
    return cfg;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
fastest(std::vector<double> v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/**
 * Peak resident set of this process image, from VmHWM. getrusage's
 * ru_maxrss is no use here: Linux carries it across exec, so it would
 * report the launching Python process's peak whenever that is larger.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    fatal("loopbench: no VmHWM in /proc/self/status");
}

/** Modelled simulator counts of one job (cumulative, warm-up included). */
struct SimCounts
{
    static constexpr size_t kFields = 9;
    uint64_t v[kFields] = {};

    enum Field {
        Cycles, Committed, Fetched, RobOccupancySum, FetchStallCycles,
        RobFullCycles, L1dAccesses, L1dMisses, L2Misses
    };

    static SimCounts
    of(const Plant &plant)
    {
        SimCounts c;
        const auto *sim = dynamic_cast<const SimPlant *>(&plant);
        if (!sim)
            return c;
        const CoreCounters &k = sim->processor().core().counters();
        c.v[Cycles] = k.cycles;
        c.v[Committed] = k.committed;
        c.v[Fetched] = k.fetched;
        c.v[RobOccupancySum] = k.robOccupancySum;
        c.v[FetchStallCycles] = k.fetchStallCycles;
        c.v[RobFullCycles] = k.robFullStallCycles;
        c.v[L1dAccesses] = k.l1dAccesses;
        c.v[L1dMisses] = k.l1dMisses;
        c.v[L2Misses] = k.l2Misses;
        return c;
    }

    SimCounts &
    operator+=(const SimCounts &o)
    {
        for (size_t i = 0; i < kFields; ++i)
            v[i] += o.v[i];
        return *this;
    }

    bool
    operator==(const SimCounts &o) const
    {
        return std::equal(v, v + kFields, o.v);
    }

    bool empty() const { return v[Cycles] == 0; }

    double
    ratio(Field num, Field den, double scale = 1.0) const
    {
        return v[den] ? scale * static_cast<double>(v[num]) /
                static_cast<double>(v[den])
                      : 0.0;
    }
};

/** What one job returns. */
struct JobOut
{
    uint64_t digest = 0;
    double exd = 0.0;
    SimCounts counts{};
    double traceBytesPerEpoch = 0.0;
    uint64_t arbiterRounds = 0;
    uint64_t wayMoves = 0;
    uint64_t retargets = 0;
};

/** One recorded job: digest plus modelled counts (cycle tier only). */
struct Expected
{
    uint64_t digest = 0;
    SimCounts counts{};
};

/** (workload, seed) -> job index -> record, from the expected file. */
using ExpectedTable =
    std::map<std::pair<std::string, uint64_t>, std::map<size_t, Expected>>;

ExpectedTable
loadExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("loopbench: cannot read expected results ", path);
    ExpectedTable table;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string workload, digest_hex;
        uint64_t seed = 0;
        size_t job = 0;
        Expected e;
        is >> workload >> seed >> job >> digest_hex;
        for (uint64_t &c : e.counts.v)
            is >> c;
        if (!is)
            fatal("loopbench: malformed line in ", path, ": ", line);
        e.digest = std::strtoull(digest_hex.c_str(), nullptr, 16);
        table[{workload, seed}][job] = e;
    }
    return table;
}

/** Per-epoch bytes of an EpochTrace's series, as allocated. */
double
traceBytesPerEpoch(const EpochTrace &t, size_t epochs)
{
    const auto bytes = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    const size_t total = bytes(t.ips) + bytes(t.power) + bytes(t.trueIps) +
        bytes(t.truePower) + bytes(t.refIps) + bytes(t.refPower) +
        bytes(t.freqLevel) + bytes(t.cacheSetting) +
        bytes(t.robPartitions) + bytes(t.tier);
    return static_cast<double>(total) / static_cast<double>(epochs);
}

/** Everything the layer metrics of a traced run are computed from. */
struct Layers
{
    SpanLog spans{kSpanCapacity};
    LayerTime plant;    //!< Plant::step, warm-up included.
    LayerTime control;  //!< ArchController::update.
    uint64_t epochNs = 0;      //!< Controlled epochs (single-core jobs).
    uint64_t epochPlantNs = 0; //!< Plant time inside those epochs.
    uint64_t epochControlNs = 0;
    uint64_t epochs = 0;
    LatencyHistogram epochHist;
    SimCounts counts;          //!< Every traced job.
    // Chip jobs.
    uint64_t chipRunNs = 0;
    uint64_t chipEpochs = 0;
    std::vector<uint64_t> coreStepNs;
};

class Bench
{
  public:
    Bench(const Workload &w, uint64_t seed)
        : w_(w), seed_(seed), cfg_(experimentConfig(w)), knobs_(false)
    {
        exec::SweepOptions opt;
        opt.jobs = 1;
        // A job that throws is a failed job, not a retried one.
        opt.resilient.maxAttempts = 1;
        opt.resilient.maxFailures = UINT64_MAX;
        runner_ = std::make_unique<exec::SweepRunner>(opt);
        Fnv64 fp;
        fp.str("loopbench").str(w.name).u64(cfg_.fingerprint());
        fingerprint_ = fp.value();
    }

    /** Jobs per round: one per app, or one chip. */
    size_t perRound() const { return w_.chip ? 1 : w_.apps.size(); }

    /** Core-epochs one job controls. */
    double
    jobEpochs() const
    {
        return static_cast<double>(w_.epochs) *
            static_cast<double>(w_.chip ? w_.apps.size() : 1);
    }

    exec::JobKey
    key(size_t j) const
    {
        const std::string label = std::string("loopbench/") + w_.name;
        if (w_.chip)
            return {"chip" + std::to_string(w_.apps.size()), label, j,
                    seed_};
        const size_t n = w_.apps.size();
        return {w_.apps[j % n], label, j / n, seed_};
    }

    /** One cold set-up; returns (design s, calibration s). */
    std::pair<double, double>
    setup()
    {
        exec::DesignCache &cache = exec::DesignCache::instance();
        cache.clear();
        const uint64_t t0 = nowNs();
        design_ = cache.design(knobs_, cfg_);
        const uint64_t t1 = nowNs();
        if (w_.fidelity != PlantFidelity::Analytic)
            return {static_cast<double>(t1 - t0) * 1e-9, 0.0};
        for (const std::string &app : w_.apps)
            (void)cache.surrogate(Spec2006Suite::byName(app), knobs_, cfg_);
        const uint64_t t2 = nowNs();
        return {static_cast<double>(t1 - t0) * 1e-9,
                static_cast<double>(t2 - t1) * 1e-9};
    }

    /** Job @p j through the public sweep entry point. */
    std::pair<JobOut, std::string>
    runUntraced(size_t j, double &seconds)
    {
        const std::vector<exec::JobKey> keys = {key(j)};
        const uint64_t t0 = nowNs();
        exec::SweepOutcome<JobOut> out = runner_->mapJobs<JobOut>(
            keys, fingerprint_,
            [this](const exec::JobContext &ctx) {
                return w_.chip ? chipJob(ctx) : coreJob(ctx);
            });
        seconds = static_cast<double>(nowNs() - t0) * 1e-9;
        if (!out.report.failures.empty())
            return {JobOut{}, out.report.failures.front().message};
        return {out.results.front(), ""};
    }

    /** Job @p j with every plant and controller wrapped in timers. */
    std::pair<JobOut, std::string>
    runTraced(size_t j, Layers &layers, double &seconds)
    {
        const uint64_t t0 = nowNs();
        try {
            JobOut out = w_.chip ? chipJobTraced(j, layers)
                                 : coreJobTraced(j, layers);
            seconds = static_cast<double>(nowNs() - t0) * 1e-9;
            return {out, ""};
        } catch (const std::exception &e) {
            seconds = static_cast<double>(nowNs() - t0) * 1e-9;
            return {JobOut{}, e.what()};
        }
    }

    /** (app, seed salt) of every plant the first round builds. */
    std::vector<std::pair<std::string, uint64_t>>
    firstRoundStreams() const
    {
        std::vector<std::pair<std::string, uint64_t>> out;
        if (w_.chip) {
            const uint64_t seed = exec::jobSeed(key(0));
            for (size_t i = 0; i < w_.apps.size(); ++i)
                out.emplace_back(w_.apps[i], coreSalt(seed, i));
        } else {
            for (size_t j = 0; j < perRound(); ++j)
                out.emplace_back(w_.apps[j], exec::jobSeed(key(j)));
        }
        return out;
    }

    const Workload &workload() const { return w_; }

  private:
    /** exec::runChipJob's per-core salt (src/exec/chip_job.cpp). */
    static uint64_t
    coreSalt(uint64_t job_seed, size_t core)
    {
        return splitmix64(job_seed ^ (0xC0FFEEULL + core));
    }

    DriverConfig
    driverConfig(const CancellationToken *cancel) const
    {
        DriverConfig d;
        d.epochs = w_.epochs;
        d.useOptimizer = true;
        d.optimizer.metricExponent = 2;
        d.fidelity = w_.fidelity;
        d.cancel = cancel;
        return d;
    }

    JobOut
    coreJob(const exec::JobContext &ctx) const
    {
        const MimoControllerDesign flow(knobs_, cfg_);
        auto mimo = flow.buildController(*design_);
        auto plant =
            exec::makePlant(Spec2006Suite::byName(ctx.key.app), knobs_,
                            cfg_, {}, exec::jobSeed(ctx.key));
        EpochDriver driver(*plant, *mimo, driverConfig(&ctx.cancel));
        const RunSummary s = driver.run(baselineSettings());
        JobOut out;
        out.digest = digest(s);
        out.exd = s.exdMetric(2);
        out.counts = SimCounts::of(*plant);
        out.traceBytesPerEpoch =
            traceBytesPerEpoch(driver.trace(), w_.epochs);
        return out;
    }

    JobOut
    chipJob(const exec::JobContext &ctx) const
    {
        exec::ChipJobConfig job;
        job.cfg = &cfg_;
        job.design = design_;
        job.apps = w_.apps;
        job.epochs = w_.epochs;
        job.initial = baselineSettings();
        const exec::ChipResult r = exec::runChipJob(job, ctx);
        JobOut out;
        out.digest = r.chipDigest;
        out.exd = r.exd;
        out.arbiterRounds = r.arbiterRounds;
        out.wayMoves = r.wayMoves;
        out.retargets = r.retargets;
        return out;
    }

    JobOut
    coreJobTraced(size_t j, Layers &L) const
    {
        const exec::JobKey k = key(j);
        const MimoControllerDesign flow(knobs_, cfg_);
        TimedController ctrl(flow.buildController(*design_), L.control,
                             L.spans, j);
        TimedPlant plant(exec::makePlant(Spec2006Suite::byName(k.app),
                                         knobs_, cfg_, {},
                                         exec::jobSeed(k)),
                         L.plant, L.spans, j);
        EpochDriver driver(plant, ctrl, driverConfig(nullptr));

        // run() is begin() + epochs x stepEpoch() + finish(); stepping
        // it here is what gives each epoch its own span.
        const uint64_t t_begin = nowNs();
        driver.begin(baselineSettings());
        const uint64_t plant0 = L.plant.ns;
        const uint64_t control0 = L.control.ns;
        uint64_t prev = nowNs();
        L.spans.add("begin", t_begin, prev, j);
        const uint64_t loop0 = prev;
        for (size_t t = 0; t < w_.epochs; ++t) {
            driver.stepEpoch();
            const uint64_t now = nowNs();
            L.epochHist.record(now - prev);
            L.spans.add("epoch", prev, now, j);
            prev = now;
        }
        L.epochNs += prev - loop0;
        L.epochPlantNs += L.plant.ns - plant0;
        L.epochControlNs += L.control.ns - control0;
        L.epochs += w_.epochs;
        const RunSummary s = driver.finish();
        L.spans.add("job", t_begin, nowNs(), j);

        JobOut out;
        out.digest = digest(s);
        out.exd = s.exdMetric(2);
        out.counts = SimCounts::of(plant.inner());
        out.traceBytesPerEpoch =
            traceBytesPerEpoch(driver.trace(), w_.epochs);
        L.counts += out.counts;
        return out;
    }

    /** exec::runChipJob's chip, built here so its cores can be wrapped. */
    JobOut
    chipJobTraced(size_t j, Layers &L) const
    {
        const size_t n = w_.apps.size();
        const uint64_t seed = exec::jobSeed(key(j));
        const MimoControllerDesign flow(knobs_, cfg_);
        std::vector<LayerTime> core_step(n);
        EpochClock clock;
        clock.skip = DriverConfig{}.warmupEpochs;
        clock.hist = &L.epochHist;
        std::vector<TimedPlant *> plants;
        std::vector<chip::ChipCore> cores;
        for (size_t i = 0; i < n; ++i) {
            auto primary = flow.buildController(*design_);
            primary->setReference(cfg_.ipsReference, cfg_.powerReference);
            auto plant = std::make_unique<TimedPlant>(
                exec::makePlant(Spec2006Suite::byName(w_.apps[i]), knobs_,
                                cfg_, {}, coreSalt(seed, i)),
                core_step[i], L.spans, j, i == 0 ? &clock : nullptr);
            plants.push_back(plant.get());
            chip::ChipCore core;
            core.app = w_.apps[i];
            core.plant = std::move(plant);
            core.controller = std::make_unique<TimedController>(
                std::move(primary), L.control, L.spans, j);
            cores.push_back(std::move(core));
        }
        DriverConfig d;
        d.epochs = w_.epochs;
        d.errorSkipEpochs = exec::ChipJobConfig{}.errorSkipEpochs;
        d.recordTrace = true;
        d.fidelity = w_.fidelity;
        chip::ChipInstance inst(std::move(cores), cfg_.chip, d);

        const uint64_t t0 = nowNs();
        const chip::ChipRunSummary s = inst.run(baselineSettings());
        const uint64_t t1 = nowNs();
        L.spans.add("job", t0, t1, j);
        L.chipRunNs += t1 - t0;
        L.chipEpochs += w_.epochs;
        L.coreStepNs.resize(n, 0);
        JobOut out;
        for (size_t i = 0; i < n; ++i) {
            L.coreStepNs[i] += core_step[i].ns;
            L.plant.ns += core_step[i].ns;
            L.plant.calls += core_step[i].calls;
            out.counts += SimCounts::of(plants[i]->inner());
            out.traceBytesPerEpoch +=
                traceBytesPerEpoch(inst.coreTrace(i), w_.epochs) /
                static_cast<double>(n);
        }
        out.digest = chip::digest(s);
        out.exd = s.exdMetric(cfg_.chip.metricExponent);
        out.arbiterRounds = s.arbiterRounds;
        out.wayMoves = s.wayMoves;
        out.retargets = s.retargets;
        L.counts += out.counts;
        return out;
    }

    const Workload &w_;
    uint64_t seed_;
    ExperimentConfig cfg_;
    KnobSpace knobs_;
    std::shared_ptr<const MimoDesignResult> design_;
    std::unique_ptr<exec::SweepRunner> runner_;
    uint64_t fingerprint_ = 0;
};

// ---- Isolated replays: one layer's cost, away from the simulator ----

volatile uint64_t g_sink = 0;

/** Epoch boundary cadence of a replayed stream, in ops. */
size_t
opsPerEpochOr(double ops_per_epoch)
{
    return ops_per_epoch >= 1.0 ? static_cast<size_t>(ops_per_epoch) : 1;
}

/** ns per SyntheticStream::next() on the given (app, salt) streams. */
double
replayStreamNsPerOp(
    const std::vector<std::pair<std::string, uint64_t>> &streams,
    double ops_per_epoch)
{
    constexpr size_t kOps = size_t{1} << 20;
    const size_t cadence = opsPerEpochOr(ops_per_epoch);
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
        uint64_t ns = 0, sink = 0;
        for (const auto &[app, salt] : streams) {
            SyntheticStream s(Spec2006Suite::byName(app), salt);
            const uint64_t t0 = nowNs();
            for (size_t i = 0; i < kOps; ++i) {
                const MicroOp op = s.next();
                sink += op.addr ^ op.pc ^ op.srcDist0;
                if ((i + 1) % cadence == 0)
                    s.nextEpoch();
            }
            ns += nowNs() - t0;
        }
        g_sink = g_sink + sink;
        reps.push_back(static_cast<double>(ns) /
                       static_cast<double>(kOps * streams.size()));
    }
    return median(reps);
}

/**
 * ns per MemoryHierarchy::accessData() replaying the loads and stores
 * of the given streams on a fresh hierarchy at the baseline settings.
 */
double
replayMemNsPerAccess(
    const std::vector<std::pair<std::string, uint64_t>> &streams,
    double ops_per_epoch)
{
    constexpr size_t kAccesses = size_t{1} << 18;
    const size_t cadence = opsPerEpochOr(ops_per_epoch);
    const KnobSettings base = baselineSettings();
    const double freq_ghz = 0.5 + 0.1 * base.freqLevel;
    struct Access
    {
        uint64_t addr;
        bool write;
    };
    std::vector<std::vector<Access>> traces;
    for (const auto &[app, salt] : streams) {
        SyntheticStream s(Spec2006Suite::byName(app), salt);
        std::vector<Access> t;
        t.reserve(kAccesses);
        for (size_t i = 0; t.size() < kAccesses; ++i) {
            const MicroOp op = s.next();
            if (op.cls == OpClass::Load || op.cls == OpClass::Store)
                t.push_back({op.addr, op.cls == OpClass::Store});
            if ((i + 1) % cadence == 0)
                s.nextEpoch();
        }
        traces.push_back(std::move(t));
    }
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
        uint64_t ns = 0, sink = 0;
        for (const std::vector<Access> &t : traces) {
            MemoryHierarchy mem;
            mem.setCacheSizeSetting(base.cacheSetting);
            const uint64_t t0 = nowNs();
            for (const Access &a : t)
                sink += mem.accessData(a.addr, a.write, freq_ghz)
                            .latencyCycles;
            ns += nowNs() - t0;
        }
        g_sink = g_sink + sink;
        reps.push_back(static_cast<double>(ns) /
                       static_cast<double>(kAccesses * traces.size()));
    }
    return median(reps);
}

// ---- Output ----

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit);
    }
    std::printf("}}\n");
}

void
printModelled(const char *what, const SimCounts &c)
{
    if (c.empty()) {
        std::printf("modelled %s: none\n", what);
        return;
    }
    std::printf("modelled %s: ipc %.6f rob_occupancy %.4f "
                "fetch_stall_frac %.6f rob_full_frac %.6f "
                "l1d_miss_rate %.6f l2_mpki %.4f (cycles %" PRIu64
                ", committed %" PRIu64 ")\n",
                what, c.ratio(SimCounts::Committed, SimCounts::Cycles),
                c.ratio(SimCounts::RobOccupancySum, SimCounts::Cycles),
                c.ratio(SimCounts::FetchStallCycles, SimCounts::Cycles),
                c.ratio(SimCounts::RobFullCycles, SimCounts::Cycles),
                c.ratio(SimCounts::L1dMisses, SimCounts::L1dAccesses),
                c.ratio(SimCounts::L2Misses, SimCounts::Committed, 1000.0),
                c.v[SimCounts::Cycles], c.v[SimCounts::Committed]);
}

// ---- Job bookkeeping shared by both modes ----

struct Checker
{
    const std::map<size_t, Expected> *recorded = nullptr;
    size_t attempted = 0;
    size_t failed = 0;
    size_t checked = 0;

    /** Count job @p j; print and return whether it passed. */
    bool
    check(size_t j, const char *mode, const exec::JobKey &key,
          const std::pair<JobOut, std::string> &r, double seconds)
    {
        ++attempted;
        std::string why = r.second;
        const JobOut &out = r.first;
        if (why.empty() && !std::isfinite(out.exd))
            why = "non-finite E x D";
        const char *status = "unrecorded";
        if (why.empty() && recorded) {
            const auto it = recorded->find(j);
            if (it != recorded->end()) {
                ++checked;
                status = "recorded";
                if (it->second.digest != out.digest)
                    why = "digest differs from the recorded one";
                else if (!out.counts.empty() &&
                         !(it->second.counts == out.counts))
                    why = "modelled counts differ from the recorded ones";
            }
        }
        std::printf("job %3zu %-6s %-11s rep %2" PRIu64 " %8.3f s "
                    "digest %016" PRIx64 " %s%s\n",
                    j, mode, key.app.c_str(), key.config, seconds,
                    out.digest, why.empty() ? status : "FAILED: ",
                    why.c_str());
        if (!why.empty())
            ++failed;
        return why.empty();
    }
};

void
printRecord(const Workload &w, uint64_t seed, size_t j, const JobOut &out)
{
    std::printf("%s %" PRIu64 " %zu %016" PRIx64, w.name, seed, j,
                out.digest);
    for (uint64_t c : out.counts.v)
        std::printf(" %" PRIu64, c);
    std::printf("\n");
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string expected;
    std::string traceFile;
    size_t record = 0;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            fatal("loopbench: missing value after ", arg);
        const std::string v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (arg == "--trace")
            a.trace = std::atoi(v.c_str());
        else if (arg == "--expected")
            a.expected = v;
        else if (arg == "--trace-file")
            a.traceFile = v;
        else if (arg == "--record")
            a.record = std::strtoull(v.c_str(), nullptr, 10);
        else
            fatal("loopbench: unknown argument ", arg);
    }
    if (a.expected.empty())
        fatal("loopbench: --expected FILE is required");
    if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1))
        fatal("loopbench: need --seconds > 0 and --trace 0|1");
    return a;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return w;
    }
    std::string names;
    for (const Workload &w : kWorkloads)
        names += std::string(" ") + w.name;
    fatal("loopbench: unknown workload '", name, "' (one of", names, ")");
}

/** Record mode: untraced and traced digests must agree. */
int
record(Bench &bench, const Args &args)
{
    bench.setup();
    Layers layers;
    for (size_t j = 0; j < args.record; ++j) {
        double s0 = 0.0, s1 = 0.0;
        const auto plain = bench.runUntraced(j, s0);
        const auto traced = bench.runTraced(j, layers, s1);
        if (!plain.second.empty() || !traced.second.empty() ||
            plain.first.digest != traced.first.digest)
            fatal("loopbench: job ", j, " failed or traced != untraced");
        printRecord(bench.workload(), args.seed, j, traced.first);
        std::fflush(stdout);
    }
    return 0;
}

/**
 * Epochs per second of one round (one job of each kind), timing each
 * kind by @p pick over its passing jobs' times.
 */
double
epochsPerSecond(const Bench &bench, const std::vector<double> &seconds,
                const std::vector<bool> &ok,
                double (*pick)(std::vector<double>))
{
    const size_t kinds = bench.perRound();
    double round_s = 0.0;
    for (size_t k = 0; k < kinds; ++k) {
        std::vector<double> times;
        for (size_t j = k; j < seconds.size(); j += kinds) {
            if (ok[j])
                times.push_back(seconds[j]);
        }
        if (times.empty())
            return 0.0;
        round_s += pick(std::move(times));
    }
    return static_cast<double>(kinds) * bench.jobEpochs() / round_s;
}

int
runEndToEnd(Bench &bench, const Args &args, Checker &checker)
{
    std::vector<double> seconds;
    std::vector<bool> ok;
    SimCounts first_round;
    const auto run_job = [&](size_t j) {
        double s = 0.0;
        const auto r = bench.runUntraced(j, s);
        ok.push_back(checker.check(j, "plain", bench.key(j), r, s));
        seconds.push_back(s);
        if (j < bench.perRound())
            first_round += r.first.counts;
    };

    // Each cold set-up is followed by a third of the job time. Host
    // speed drifts by tens of percent within seconds (NOISE.md), so
    // jobs spread over the whole run sample more of that drift than
    // one block of jobs would. A window starts another job only while
    // at least half of a typical job still fits.
    std::vector<double> setup_s;
    const uint64_t window =
        static_cast<uint64_t>(args.seconds * 1e9 / kSetupReps);
    size_t j = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto [d, c] = bench.setup();
        std::printf("setup %d: design %.3f s, calibration %.3f s\n", rep,
                    d, c);
        setup_s.push_back(d + c);
        const uint64_t t_end = nowNs() + window;
        do
            run_job(j++);
        while (nowNs() + static_cast<uint64_t>(median(seconds) * 0.5e9) <
               t_end);
    }
    while (j < bench.perRound())
        run_job(j++);
    const double rss = peakRssMb();
    if (bench.workload().chip)
        std::printf("modelled first round: traced run only (runChipJob "
                    "keeps its plants)\n");
    else
        printModelled("first round", first_round);

    const double by_median = epochsPerSecond(bench, seconds, ok, median);
    const double by_fastest = epochsPerSecond(bench, seconds, ok, fastest);
    const bool use_fastest = bench.workload().byFastestJob;
    std::printf("epochs_per_s by each kind's median job %.6g, by its "
                "fastest job %.6g; the %s one is reported\n",
                by_median, by_fastest, use_fastest ? "fastest" : "median");
    std::printf("checked %zu of %zu jobs against recorded digests\n",
                checker.checked, checker.attempted);
    printResult(checker.failed == 0, checker.attempted, checker.failed,
                {{"epochs_per_s", use_fastest ? by_fastest : by_median,
                  "1/s"},
                 {"setup_s", median(setup_s), "s"},
                 {"peak_rss_mb", rss, "MB"}});
    return 0;
}

int
runPerLayer(Bench &bench, const Args &args, Checker &checker)
{
    const Workload &w = bench.workload();
    const auto [design_s, cal_s] = bench.setup();

    Layers L;
    uint64_t plain_ns = 0, traced_ns = 0;
    double trace_bytes = 0.0;
    JobOut first_chip{};
    SimCounts first_round;
    size_t pairs = 0;
    const uint64_t t_end =
        nowNs() + static_cast<uint64_t>(args.seconds * 1e9);
    for (size_t j = 0; j < bench.perRound() || nowNs() < t_end; ++j) {
        double s0 = 0.0, s1 = 0.0;
        const auto plain = bench.runUntraced(j, s0);
        const bool plain_ok =
            checker.check(j, "plain", bench.key(j), plain, s0);
        auto traced = bench.runTraced(j, L, s1);
        if (plain_ok && traced.second.empty() &&
            traced.first.digest != plain.first.digest)
            traced.second = "traced digest differs from untraced";
        if (!checker.check(j, "traced", bench.key(j), traced, s1) ||
            !plain_ok)
            continue;
        plain_ns += static_cast<uint64_t>(s0 * 1e9);
        traced_ns += static_cast<uint64_t>(s1 * 1e9);
        trace_bytes += traced.first.traceBytesPerEpoch;
        ++pairs;
        if (j < bench.perRound())
            first_round += traced.first.counts;
        if (j == 0)
            first_chip = traced.first;
    }
    printModelled("first round", first_round);

    // Layer metrics. Cycle-tier plants are SimPlants; zeros mark a
    // layer the workload does not run (sim/workload on analytic, chip
    // on single-core workloads, calibration off analytic).
    const SimCounts &c = L.counts;
    const bool cycle = w.fidelity == PlantFidelity::CycleLevel;
    const double steps = static_cast<double>(L.plant.calls);
    const double step_ns =
        steps > 0 ? static_cast<double>(L.plant.ns) / steps : 0.0;
    const double ops_per_epoch =
        cycle && steps > 0 ? c.v[SimCounts::Fetched] / steps : 0.0;
    const double accesses_per_epoch =
        cycle && steps > 0 ? c.v[SimCounts::L1dAccesses] / steps : 0.0;
    double ns_per_op = 0.0, ns_per_access = 0.0;
    if (cycle) {
        const auto streams = bench.firstRoundStreams();
        ns_per_op = replayStreamNsPerOp(streams, ops_per_epoch);
        ns_per_access = replayMemNsPerAccess(streams, ops_per_epoch);
    }
    const double stream_share =
        step_ns > 0 ? ops_per_epoch * ns_per_op / step_ns : 0.0;
    const double mem_share =
        step_ns > 0 ? accesses_per_epoch * ns_per_access / step_ns : 0.0;

    double sim_share = 0.0, harness_self_ns = 0.0, chip_self_us = 0.0,
           spread = 0.0;
    if (w.chip) {
        sim_share = L.chipRunNs
            ? static_cast<double>(L.plant.ns) /
                static_cast<double>(L.chipRunNs)
            : 0.0;
        const double self_ns = static_cast<double>(L.chipRunNs) -
            static_cast<double>(L.plant.ns) -
            static_cast<double>(L.control.ns);
        const double core_epochs = static_cast<double>(L.chipEpochs) *
            static_cast<double>(w.apps.size());
        harness_self_ns = core_epochs > 0 ? self_ns / core_epochs : 0.0;
        chip_self_us = L.chipEpochs
            ? self_ns / static_cast<double>(L.chipEpochs) / 1e3
            : 0.0;
        double sum = 0.0, most = 0.0;
        for (uint64_t ns : L.coreStepNs) {
            sum += static_cast<double>(ns);
            most = std::max(most, static_cast<double>(ns));
        }
        spread = sum > 0
            ? most / (sum / static_cast<double>(L.coreStepNs.size()))
            : 0.0;
    } else if (L.epochs) {
        sim_share = cycle ? static_cast<double>(L.epochPlantNs) /
                static_cast<double>(L.epochNs)
                          : 0.0;
        harness_self_ns = (static_cast<double>(L.epochNs) -
                           static_cast<double>(L.epochPlantNs) -
                           static_cast<double>(L.epochControlNs)) /
            static_cast<double>(L.epochs);
    }
    const double controls = static_cast<double>(L.control.calls);

    if (!args.traceFile.empty() && !L.spans.write(args.traceFile))
        warn("loopbench: cannot write ", args.traceFile);
    std::printf("spans: %zu kept, %" PRIu64 " dropped%s%s\n",
                L.spans.kept(), L.spans.dropped(),
                args.traceFile.empty() ? "" : ", written to ",
                args.traceFile.c_str());
    std::printf("computed split of plant.step from isolated replays: "
                "stream %.4f, memory %.4f, core pipeline (remainder) "
                "%.4f\n",
                stream_share, mem_share,
                cycle ? 1.0 - stream_share - mem_share : 0.0);

    const double n_pairs = pairs ? static_cast<double>(pairs) : 1.0;
    std::vector<Metric> m = {
        {"sim.ns_per_cycle",
         cycle && c.v[SimCounts::Cycles]
             ? static_cast<double>(L.plant.ns) / c.v[SimCounts::Cycles]
             : 0.0,
         "ns"},
        {"sim.share", sim_share, "fraction"},
        {"sim.kips",
         cycle && L.plant.ns
             ? c.v[SimCounts::Committed] * 1e6 /
                 static_cast<double>(L.plant.ns)
             : 0.0,
         "kinstr/s"},
        {"sim.mem_ns_per_access", ns_per_access, "ns"},
        {"sim.ipc", first_round.ratio(SimCounts::Committed,
                                      SimCounts::Cycles),
         "instr/cycle"},
        {"sim.rob_occupancy",
         first_round.ratio(SimCounts::RobOccupancySum, SimCounts::Cycles),
         "entries"},
        {"sim.fetch_stall_frac",
         first_round.ratio(SimCounts::FetchStallCycles, SimCounts::Cycles),
         "fraction"},
        {"sim.rob_full_frac",
         first_round.ratio(SimCounts::RobFullCycles, SimCounts::Cycles),
         "fraction"},
        {"sim.l1d_miss_rate",
         first_round.ratio(SimCounts::L1dMisses, SimCounts::L1dAccesses),
         "fraction"},
        {"sim.l2_mpki",
         first_round.ratio(SimCounts::L2Misses, SimCounts::Committed,
                           1000.0),
         "miss/kinstr"},
        {"sim.computed_stream_share", stream_share, "fraction"},
        {"sim.computed_mem_share", mem_share, "fraction"},
        {"sim.computed_core_share",
         cycle ? 1.0 - stream_share - mem_share : 0.0, "fraction"},
        {"workload.ns_per_op", ns_per_op, "ns"},
        {"workload.ops_per_epoch", ops_per_epoch, "ops"},
        {"plant.step_ns", step_ns, "ns"},
        {"plant.calibration_s", cal_s, "s"},
        {"control.update_ns",
         controls > 0 ? static_cast<double>(L.control.ns) / controls : 0.0,
         "ns"},
        {"core.harness_self_ns", harness_self_ns, "ns"},
        {"core.trace_bytes_per_epoch", trace_bytes / n_pairs, "B"},
        {"core.design_s", design_s, "s"},
        {"core.epoch_p50_us", L.epochHist.quantileNs(0.50) / 1e3, "us"},
        {"core.epoch_p99_us", L.epochHist.quantileNs(0.99) / 1e3, "us"},
        {"core.epoch_samples", static_cast<double>(L.epochHist.count()),
         "count"},
        {"chip.self_us", chip_self_us, "us"},
        {"chip.core_step_spread", spread, "ratio"},
        {"chip.arbiter_rounds", static_cast<double>(first_chip.arbiterRounds),
         "count"},
        {"chip.way_moves", static_cast<double>(first_chip.wayMoves),
         "count"},
        {"chip.retargets", static_cast<double>(first_chip.retargets),
         "count"},
        {"bench.trace_overhead_pct",
         plain_ns ? 100.0 * (static_cast<double>(traced_ns) /
                                 static_cast<double>(plain_ns) -
                             1.0)
                  : 0.0,
         "%"},
    };
    std::printf("checked %zu of %zu jobs against recorded digests\n",
                checker.checked, checker.attempted);
    printResult(checker.failed == 0, checker.attempted, checker.failed, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload &w = findWorkload(args.workload);
    const ExpectedTable table = loadExpected(args.expected);

    std::printf("loopbench workload %s seed %" PRIu64 " seconds %g "
                "trace %d\n",
                w.name, args.seed, args.seconds, args.trace);
    std::printf("build: %s, %s, flags '%s', MIMOARCH_CHECKED=%d "
                "MIMOARCH_CHAOS=%d MIMOARCH_TELEMETRY=%d (disarmed), "
                "nproc %ld, 1 worker thread\n",
                LOOPBENCH_BUILD_TYPE, LOOPBENCH_CXX, LOOPBENCH_CXX_FLAGS,
                MIMOARCH_CHECKED, MIMOARCH_CHAOS, MIMOARCH_TELEMETRY,
                sysconf(_SC_NPROCESSORS_ONLN));
    std::fflush(stdout);

    Bench bench(w, args.seed);
    if (args.record)
        return record(bench, args);

    Checker checker;
    const auto it = table.find({w.name, args.seed});
    if (it != table.end())
        checker.recorded = &it->second;
    return args.trace ? runPerLayer(bench, args, checker)
                      : runEndToEnd(bench, args, checker);
}
