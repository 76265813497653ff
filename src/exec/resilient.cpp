#include "exec/resilient.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "common/fileio.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "exec/journal.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace mimoarch::exec {

std::string
JobKey::label() const
{
    return (app.empty() ? std::string("-") : app) + "/" +
           (controller.empty() ? std::string("-") : controller) +
           "/config=" + std::to_string(config) +
           "/rep=" + std::to_string(rep);
}

const char *
failureCauseName(FailureCause cause)
{
    switch (cause) {
      case FailureCause::Exception: return "exception";
      case FailureCause::Timeout: return "timeout";
      case FailureCause::InvalidResult: return "invalid-result";
      case FailureCause::Canceled: return "canceled";
    }
    return "unknown";
}

namespace {

using Clock = CancellationToken::Clock;

/**
 * Sleep for @p d in 2 ms slices, cut short when @p token is canceled.
 * Returns false when the token was canceled before the time was up.
 */
bool
sleepUnlessCanceled(Clock::duration d, const CancellationToken &token)
{
    const Clock::time_point until = Clock::now() + d;
    while (Clock::now() < until) {
        if (token.canceled())
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

/** The retry/timeout/journal state machine behind runResilient(). */
class Engine
{
  public:
    Engine(unsigned workers, std::vector<ResilientJob> jobs,
           const ResilientPolicy &policy, uint64_t fingerprint,
           bool progress)
        : workers_(workers), jobs_(std::move(jobs)), policy_(policy),
          progress_(progress), chaos_(policy.chaos),
          done_(jobs_.size(), 0)
    {
        if (!policy_.resumePath.empty()) {
            journal_ = std::make_unique<SweepJournal>(policy_.resumePath,
                                                      fingerprint);
        }
        // Publishing the empty report registers the exec.* names.
        publishMetrics(SweepReport{});
    }

    SweepReport
    run()
    {
        const size_t n = jobs_.size();
        if (journal_)
            resumeFromJournal();

        std::vector<size_t> todo;
        for (size_t i = 0; i < n; ++i)
            if (!done_[i])
                todo.push_back(i);

        parallelFor(todo.size(), workers_,
                    [&](size_t k) { runJob(todo[k]); });
        return finalize();
    }

  private:
    void
    resumeFromJournal()
    {
        size_t unjournalable = 0;
        for (size_t i = 0; i < jobs_.size(); ++i) {
            const ResilientJob &job = jobs_[i];
            if (!job.save || !job.load) {
                ++unjournalable;
                continue;
            }
            const std::vector<unsigned char> *bytes =
                journal_->find(jobSeed(job.key));
            if (bytes != nullptr && job.load(*bytes)) {
                done_[i] = 1;
                ++resumed_;
                ++completed_;
                ++resolved_;
                telemetry::TraceBuffer &tb = telemetry::trace();
                if (tb.enabled())
                    tb.instant("job-resumed", "sweep", telemetry::nowNs(),
                               "job", static_cast<int64_t>(i));
            }
        }
        if (unjournalable > 0) {
            warn("sweep: ", unjournalable,
                 " job(s) have a result type the journal cannot store; "
                 "they re-run on every resume");
        }
        if (resumed_ > 0) {
            inform("sweep: resumed ", resumed_, "/", jobs_.size(),
                   " job(s) from ", journal_->path());
        }
    }

    /** Attempt (and, on retry, re-attempt) job @p i. */
    void
    runJob(size_t i)
    {
        for (unsigned attempt = 1;; ++attempt) {
            if (attempt > 1)
                (void)sleepUnlessCanceled(backoff(i, attempt), abort_);
            if (!attemptOnce(i, attempt))
                return; // resolved (success or permanent failure)
        }
    }

    /** One attempt. Returns true when a retry should be scheduled. */
    bool
    attemptOnce(size_t i, unsigned attempt)
    {
        if (abort_.canceled()) {
            finishFailure(i, attempt - 1, FailureCause::Canceled,
                          "canceled before attempt " +
                              std::to_string(attempt) +
                              " (sweep aborting)");
            return false;
        }

        // The attempt's token lives exactly as long as the attempt: a
        // fail-fast abort reaches it through its parent, and the
        // --job-timeout deadline through the job's own polls.
        const CancellationToken token(&abort_, attemptDeadline());

        const ChaosAction act =
            chaos_.sample(jobSeed(jobs_[i].key), attempt);
        if (act != ChaosAction::None)
            chaosInjections_.fetch_add(1, std::memory_order_relaxed);

        bool failed = false;
        FailureCause cause = FailureCause::Exception;
        std::string message;
        telemetry::Histogram attempt_ns;
        try {
            telemetry::Span span("job", "sweep", &attempt_ns, "job",
                                 static_cast<int64_t>(i));
            if (act == ChaosAction::Throw)
                throw ChaosError("chaos: injected exception");
            if (act == ChaosAction::Delay &&
                !sleepUnlessCanceled(
                    std::chrono::milliseconds(chaos_.delayMs()), token))
                throw CanceledError("canceled during chaos delay");
            const JobContext ctx{jobs_[i].key, i, attempt, token};
            jobs_[i].run(ctx);
            if (act == ChaosAction::Invalid) {
                throw InvalidResultError(
                    "chaos: result declared invalid");
            }
        } catch (const InvalidResultError &e) {
            failed = true;
            cause = FailureCause::InvalidResult;
            message = e.what();
        } catch (const CanceledError &e) {
            failed = true;
            cause = FailureCause::Canceled;
            message = e.what();
        } catch (const std::exception &e) {
            failed = true;
            cause = FailureCause::Exception;
            message = e.what();
        } catch (...) {
            failed = true;
            cause = FailureCause::Exception;
            message = "non-exception throw";
        }

        {
            std::lock_guard<std::mutex> lk(stateMutex_);
            taskNs_.merge(attempt_ns);
        }
        if (failed && cause == FailureCause::Canceled && token.expired())
            cause = FailureCause::Timeout;

        if (!failed) {
            finishSuccess(i);
            return false;
        }

        if (cause == FailureCause::Timeout) {
            timeouts_.fetch_add(1, std::memory_order_relaxed);
            telemetry::TraceBuffer &tb = telemetry::trace();
            if (tb.enabled())
                tb.instant("job-timeout", "sweep", telemetry::nowNs(),
                           "job", static_cast<int64_t>(i));
        }

        const bool retry = attempt < policy_.maxAttempts &&
                           cause != FailureCause::Canceled &&
                           !abort_.canceled();
        if (retry) {
            retries_.fetch_add(1, std::memory_order_relaxed);
            telemetry::TraceBuffer &tb = telemetry::trace();
            if (tb.enabled())
                tb.instant("job-retry", "sweep", telemetry::nowNs(),
                           "job", static_cast<int64_t>(i));
            return true;
        }
        finishFailure(i, attempt, cause, std::move(message));
        return false;
    }

    void
    finishSuccess(size_t i)
    {
        if (journal_ && jobs_[i].save) {
            const std::vector<unsigned char> bytes = jobs_[i].save();
            journal_->append(jobSeed(jobs_[i].key), bytes.data(),
                             bytes.size());
        }
        size_t resolved;
        {
            std::lock_guard<std::mutex> lk(stateMutex_);
            ++completed_;
            resolved = ++resolved_;
        }
        tick(resolved);
    }

    void
    finishFailure(size_t i, unsigned attempts, FailureCause cause,
                  std::string message)
    {
        telemetry::TraceBuffer &tb = telemetry::trace();
        if (tb.enabled())
            tb.instant("job-failed", "sweep", telemetry::nowNs(), "job",
                       static_cast<int64_t>(i));
        size_t resolved;
        {
            std::lock_guard<std::mutex> lk(stateMutex_);
            failures_.push_back(JobFailure{jobs_[i].key, i, attempts,
                                           cause, std::move(message)});
            resolved = ++resolved_;
        }
        // Exceeding --max-failures does NOT abort: the default policy
        // lets every healthy job finish (results the caller may still
        // want journaled) and throws from finalize(). Only --fail-fast
        // trades that completeness for an immediate stop: cancelling
        // the root reaches every attempt in flight through its token's
        // parent, and queued attempts resolve as Canceled unrun.
        if (policy_.failFast)
            abort_.requestCancel();
        tick(resolved);
    }

    /** The --job-timeout deadline for an attempt starting now
     *  (time_point::max() = none). */
    Clock::time_point
    attemptDeadline() const
    {
        if (!(policy_.jobTimeoutS > 0.0))
            return Clock::time_point::max();
        // Budgets past ~30 years are clamped so the cast cannot
        // overflow the clock's 64-bit tick count.
        const std::chrono::duration<double> budget(
            std::min(policy_.jobTimeoutS, 1.0e9));
        return Clock::now() +
               std::chrono::duration_cast<Clock::duration>(budget);
    }

    /**
     * Deterministic retry backoff: base * 2^(attempt-2), jittered into
     * [0.5x, 1x] by a pure hash of (job seed, attempt), capped at 2 s.
     * Timing never feeds results, but a seed-derived schedule keeps
     * chaos campaigns exactly reproducible end to end.
     */
    Clock::duration
    backoff(size_t i, unsigned attempt) const
    {
        if (policy_.retryBackoffS <= 0.0)
            return Clock::duration::zero();
        double scaled = policy_.retryBackoffS;
        for (unsigned k = 2; k < attempt; ++k)
            scaled *= 2.0;
        scaled = std::min(scaled, 2.0);
        Fnv64 h;
        h.u64(jobSeed(jobs_[i].key)).u64(attempt).u64(0xBACC0FF);
        const double jitter =
            0.5 + 0.5 * static_cast<double>(h.value() >> 11) *
                      (1.0 / 9007199254740992.0);
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(scaled * jitter));
    }

    void
    tick(size_t resolved)
    {
        if (progress_) {
            std::fprintf(stderr, "# sweep: %zu/%zu jobs done\n",
                         resolved, jobs_.size());
        }
    }

    SweepReport
    finalize()
    {
        SweepReport report;
        report.jobs = jobs_.size();
        report.completed = completed_;
        report.resumedFromJournal = resumed_;
        report.retries = retries_.load(std::memory_order_relaxed);
        report.timeouts = timeouts_.load(std::memory_order_relaxed);
        report.chaosInjections =
            chaosInjections_.load(std::memory_order_relaxed);
        report.failures = std::move(failures_);
        std::sort(report.failures.begin(), report.failures.end(),
                  [](const JobFailure &a, const JobFailure &b) {
                      return a.index < b.index;
                  });

        publishMetrics(report);
        writeFailureReport(report);

        const bool aborted = abort_.canceled();
        if (!aborted && report.failures.size() <= policy_.maxFailures) {
            if (!report.failures.empty()) {
                warn("sweep: completed with ", report.failures.size(),
                     " failed job(s) out of ", report.jobs,
                     " (within --max-failures ", policy_.maxFailures,
                     "); failed slots carry default values");
            }
            return report;
        }

        // Prefer the lowest-index *root cause* failure for the error
        // text; Canceled entries are collateral of the abort.
        const JobFailure *first = nullptr;
        for (const JobFailure &f : report.failures) {
            if (f.cause != FailureCause::Canceled) {
                first = &f;
                break;
            }
        }
        if (first == nullptr)
            first = &report.failures.front();
        std::string what = "sweep job " + first->key.label() + " (job " +
                           std::to_string(first->index) + ") failed after " +
                           std::to_string(first->attempts) +
                           " attempt(s): " +
                           failureCauseName(first->cause) + ": " +
                           first->message;
        if (report.failures.size() > 1) {
            what += " [+" +
                    std::to_string(report.failures.size() - 1) +
                    " more failed/canceled job(s)";
            if (!policy_.failureReportPath.empty())
                what += "; see " + policy_.failureReportPath;
            what += "]";
        }
        throw SweepError(what, std::move(report.failures));
    }

    /** Add @p report's counts and the attempts to the exec.* metrics. */
    void
    publishMetrics(const SweepReport &report) const
    {
        telemetry::Registry &reg = telemetry::registry();
        reg.add("exec.job_retries", report.retries);
        reg.add("exec.job_timeouts", report.timeouts);
        reg.add("exec.job_failures", report.failures.size());
        reg.add("exec.jobs_resumed", report.resumedFromJournal);
        reg.add("exec.chaos_injections", report.chaosInjections);
        // Every attempt run records one sample.
        reg.add("exec.tasks", taskNs_.count);
        reg.merge("exec.task_ns", taskNs_);
    }

    void
    writeFailureReport(const SweepReport &report) const
    {
        if (policy_.failureReportPath.empty()) {
            if (!report.failures.empty()) {
                warn("sweep: ", report.failures.size(),
                     " job(s) failed; pass --failure-report PATH for a "
                     "machine-readable report");
            }
            return;
        }
        std::string out;
        out += "{\n\"schema\": 3,\n";
        out += "\"jobs\": " + std::to_string(report.jobs) + ",\n";
        out += "\"completed\": " + std::to_string(report.completed) +
               ",\n";
        out += "\"resumed_from_journal\": " +
               std::to_string(report.resumedFromJournal) + ",\n";
        out += "\"retries\": " + std::to_string(report.retries) + ",\n";
        out += "\"timeouts\": " + std::to_string(report.timeouts) +
               ",\n";
        out += "\"chaos_injections\": " +
               std::to_string(report.chaosInjections) + ",\n";
        out += "\"failures\": [";
        for (size_t i = 0; i < report.failures.size(); ++i) {
            const JobFailure &f = report.failures[i];
            out += i == 0 ? "\n" : ",\n";
            out += "{\"app\": \"";
            telemetry::appendEscaped(out, f.key.app);
            out += "\", \"controller\": \"";
            telemetry::appendEscaped(out, f.key.controller);
            out += "\", \"config\": " + std::to_string(f.key.config);
            out += ", \"rep\": " + std::to_string(f.key.rep);
            out += ", \"index\": " + std::to_string(f.index);
            out += ", \"attempts\": " + std::to_string(f.attempts);
            out += ", \"cause\": \"";
            out += failureCauseName(f.cause);
            out += "\", \"message\": \"";
            telemetry::appendEscaped(out, f.message);
            out += "\"}";
        }
        out += "\n]\n}\n";
        if (!writeFileAtomic(policy_.failureReportPath, out)) {
            warn("sweep: could not write failure report to ",
                 policy_.failureReportPath);
        }
    }

    const unsigned workers_;
    std::vector<ResilientJob> jobs_;
    const ResilientPolicy policy_;
    const bool progress_;
    ChaosInjector chaos_;
    std::unique_ptr<SweepJournal> journal_;

    std::vector<char> done_; //!< Resolved before execution (resume).

    /** Root of every attempt's token; --fail-fast cancels it. */
    CancellationToken abort_;

    // Sweep accounting.
    std::mutex stateMutex_;
    std::vector<JobFailure> failures_;
    size_t completed_ = 0;
    size_t resumed_ = 0;
    size_t resolved_ = 0;
    std::atomic<uint64_t> retries_{0};
    std::atomic<uint64_t> timeouts_{0};
    std::atomic<uint64_t> chaosInjections_{0};
    telemetry::Histogram taskNs_; //!< Per attempt run; stateMutex_.
};

} // namespace

SweepReport
runResilient(unsigned workers, std::vector<ResilientJob> jobs,
             const ResilientPolicy &policy, uint64_t fingerprint,
             bool progress)
{
    Engine engine(workers, std::move(jobs), policy, fingerprint,
                  progress);
    return engine.run();
}

} // namespace mimoarch::exec
