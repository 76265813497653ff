#include "exec/sweep.hpp"

#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace mimoarch::exec {

namespace {

/**
 * Trace slots a --telemetry run arms the global buffer with. The
 * largest sweep, fig_fault_resilience, records 621,896 events: 5
 * rates x 23 apps x 3 loops x 1800 = 621,000 epoch spans plus its
 * job, run, warm-up, design and supervisor events. 2^20 slots hold
 * them with ~425k to spare. The slots are reserved, not written, at
 * start(), so resident memory follows the events actually recorded
 * (56 B each). Overflow drops (and counts) rather than reallocating.
 */
constexpr size_t kTraceCapacity = size_t{1} << 20;

unsigned
parseJobCount(const char *text, const char *flag)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 1 || v > 4096)
        fatal(flag, ": expected a job count in [1, 4096], got '", text,
              "'");
    return static_cast<unsigned>(v);
}

uint64_t
parseU64(const char *text, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        fatal(flag, ": expected a non-negative integer, got '", text,
              "'");
    return static_cast<uint64_t>(v);
}

double
parseSeconds(const char *text, const char *flag)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= 0.0))
        fatal(flag, ": expected seconds >= 0, got '", text, "'");
    return v;
}

double
parseRate(const char *text, const char *flag)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= 0.0) || v > 1.0)
        fatal(flag, ": expected a probability in [0, 1], got '", text,
              "'");
    return v;
}

/** Flag value: "--flag VALUE" or "--flag=VALUE". Null when @p arg is
 *  not @p flag; fatal when the value is missing. */
const char *
flagValue(const char *arg, const char *flag, int argc, char **argv,
          int &i)
{
    const size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0)
        return nullptr;
    if (arg[n] == '=')
        return arg + n + 1;
    if (arg[n] != '\0')
        return nullptr;
    if (i + 1 >= argc)
        fatal(flag, ": missing value");
    return argv[++i];
}

} // namespace

SweepOptions
parseSweepArgs(int argc, char **argv)
{
    SweepOptions opt;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *v = nullptr;
        if (std::strcmp(arg, "-j") == 0) {
            if (i + 1 >= argc)
                fatal(arg, ": missing job count");
            opt.jobs = parseJobCount(argv[++i], arg);
        } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
            opt.jobs = parseJobCount(arg + 2, "-j");
        } else if ((v = flagValue(arg, "--jobs", argc, argv, i))) {
            opt.jobs = parseJobCount(v, "--jobs");
        } else if ((v = flagValue(arg, "--telemetry", argc, argv, i))) {
            opt.telemetry = v;
        } else if ((v = flagValue(arg, "--fidelity", argc, argv, i))) {
            if (std::strcmp(v, "cycle") == 0)
                opt.fidelity = PlantFidelity::CycleLevel;
            else if (std::strcmp(v, "analytic") == 0)
                opt.fidelity = PlantFidelity::Analytic;
            else
                fatal("--fidelity: expected 'cycle' or 'analytic', "
                      "got '", v, "'");
        } else if ((v = flagValue(arg, "--retries", argc, argv, i))) {
            opt.resilient.maxAttempts =
                1 + static_cast<unsigned>(parseU64(v, "--retries"));
        } else if ((v = flagValue(arg, "--job-timeout", argc, argv,
                                  i))) {
            opt.resilient.jobTimeoutS = parseSeconds(v, "--job-timeout");
        } else if ((v = flagValue(arg, "--max-failures", argc, argv,
                                  i))) {
            opt.resilient.maxFailures = parseU64(v, "--max-failures");
        } else if (std::strcmp(arg, "--fail-fast") == 0) {
            opt.resilient.failFast = true;
        } else if ((v = flagValue(arg, "--resume", argc, argv, i))) {
            opt.resilient.resumePath = v;
        } else if ((v = flagValue(arg, "--failure-report", argc, argv,
                                  i))) {
            opt.resilient.failureReportPath = v;
        } else if ((v = flagValue(arg, "--chaos-seed", argc, argv, i))) {
            opt.resilient.chaos.seed = parseU64(v, "--chaos-seed");
        } else if ((v = flagValue(arg, "--chaos-exception-rate", argc,
                                  argv, i))) {
            opt.resilient.chaos.exceptionRate =
                parseRate(v, "--chaos-exception-rate");
        } else if ((v = flagValue(arg, "--chaos-delay-rate", argc, argv,
                                  i))) {
            opt.resilient.chaos.delayRate =
                parseRate(v, "--chaos-delay-rate");
        } else if ((v = flagValue(arg, "--chaos-invalid-rate", argc,
                                  argv, i))) {
            opt.resilient.chaos.invalidRate =
                parseRate(v, "--chaos-invalid-rate");
        } else if ((v = flagValue(arg, "--chaos-delay-ms", argc, argv,
                                  i))) {
            opt.resilient.chaos.delayMs =
                static_cast<uint32_t>(parseU64(v, "--chaos-delay-ms"));
        } else {
            fatal("unknown argument '", arg,
                  "' (benches accept --jobs N, --telemetry OUT.json, "
                  "--fidelity cycle|analytic, --retries N, "
                  "--job-timeout S, "
                  "--max-failures N, --fail-fast, --resume PATH, "
                  "--failure-report PATH, and --chaos-* flags)");
        }
    }
    return opt;
}

SweepRunner::SweepRunner(const SweepOptions &options)
    : jobs_(options.jobs > 0 ? options.jobs : hardwareThreads()),
      progress_(options.progress), telemetryPath_(options.telemetry),
      resilient_(options.resilient)
{
    if (!telemetryPath_.empty() && !telemetry::trace().enabled()) {
        telemetry::trace().start(kTraceCapacity);
        armedTrace_ = true;
    }
}

SweepRunner::~SweepRunner()
{
    // mapJobs() joins its threads before it returns, so the trace
    // buffer and registry are quiescent here.
    if (!telemetryPath_.empty())
        telemetry::writeReports(telemetryPath_);
    else if (armedTrace_)
        telemetry::trace().stop();
}

} // namespace mimoarch::exec
