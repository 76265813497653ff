/**
 * @file
 * A small work-stealing thread pool for sweep execution.
 *
 * Each worker owns a deque of tasks: it pushes and pops at the back
 * (LIFO, cache-friendly for nested submits) and victims are stolen
 * from at the front (FIFO, oldest task first). External submitters
 * round-robin across workers so a burst of jobs spreads immediately
 * instead of queueing behind one thread.
 *
 * The pool carries no notion of ordering or results — determinism is
 * the caller's job (see SweepRunner): tasks must derive all randomness
 * from their own job key and write only to their own slots, so the
 * schedule can be arbitrary without changing any output.
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace mimoarch::exec {

/** Fixed-size work-stealing pool; joins on destruction. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means hardwareThreads(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Waits for all submitted tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned threadCount() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Enqueue a task. Tasks may submit further tasks. A task that
     * throws takes the process down (panic); wrap work that can fail
     * (SweepRunner captures per-job exceptions and rethrows in order).
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task (including nested) finished. */
    void wait();

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned hardwareThreads();

  private:
    /** A queued task plus its enqueue timestamp (queue-latency metric). */
    struct Task
    {
        std::function<void()> fn;
        uint64_t submitNs = 0;
    };

    struct Worker
    {
        std::deque<Task> queue;
        std::mutex mutex;
        /** Nanoseconds spent running tasks on this worker's thread.
         *  Written only by the owning thread; read after join(). */
        uint64_t busyNs = 0;
    };

    void workerLoop(size_t self);

    /**
     * Claim one task previously reserved by decrementing queued_: own
     * queue's back first (LIFO), then the front of the other workers'
     * queues (FIFO steal). Loops until a task is found — a reservation
     * guarantees one exists or is in flight to a queue.
     */
    Task acquireTask(size_t self);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    // Pool telemetry: queue latency (submit -> claim) and task runtime
    // histograms, plus per-worker utilization gauges written at
    // shutdown.
    telemetry::Histogram *tmQueueNs_;
    telemetry::Histogram *tmTaskNs_;
    telemetry::Counter *tmTasks_;
    uint64_t bornNs_ = 0;

    std::mutex stateMutex_;
    std::condition_variable workAvailable_; //!< Wakes idle workers.
    std::condition_variable allDone_;       //!< Wakes wait()ers.
    size_t pending_ = 0; //!< Submitted, not yet finished (incl. running).
    size_t queued_ = 0;  //!< Sitting in queues, not yet claimed.
    size_t nextWorker_ = 0; //!< Round-robin cursor for external submits.
    bool stopping_ = false;
};

} // namespace mimoarch::exec
