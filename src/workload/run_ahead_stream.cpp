#include "workload/run_ahead_stream.hpp"

#include <system_error>

#include "telemetry/telemetry.hpp"

namespace mimoarch {

RunAheadStream::RunAheadStream(const AppSpec &spec, uint64_t seed_salt)
    : ring_(std::make_unique<Chunk[]>(kChunks)), gen_(spec, seed_salt)
{
    ticksToRewind_ = gen_.epochsLeftInPhase();
    // Publishing the zero counts registers their names, so the
    // destructor's publish only looks them up.
    publishMetrics();
    try {
        if (failSpawn_)
            throw std::system_error(std::make_error_code(
                std::errc::resource_unavailable_try_again));
        producer_ = std::thread([this] { produce(); });
    } catch (const std::system_error &) {
        // No producer: takeChunk() fills each chunk on the core's thread.
    }
}

RunAheadStream::~RunAheadStream()
{
    publishMetrics();
    if (!producer_.joinable())
        return;
    // Wakes the producer from any wait; it stops at its next check,
    // after the chunk it may be filling.
    state_.store(kStop);
    state_.notify_one();
    producer_.join();
}

void
RunAheadStream::publishMetrics() const
{
    telemetry::Registry &reg = telemetry::registry();
    reg.add("stream.waits", waits_);
    reg.add("stream.wait_ns", waitNs_);
    reg.add("stream.rewinds", rewinds_);
}

void
RunAheadStream::fill(Chunk &chunk)
{
    chunk.start = gen_.cursor();
    for (MicroOp &op : chunk.ops)
        op = gen_.next();
}

void
RunAheadStream::takeChunk()
{
    if (ops_ != nullptr) {
        // Release the held chunk. Storing tail_ before reading state_
        // pairs with the producer storing kFull before reading tail_,
        // so one of the two sees the other.
        tail_.store(++taken_);
        if (state_.load() == kFull &&
            head_.load(std::memory_order_relaxed) - taken_ <= kChunks / 2) {
            uint32_t full = kFull;
            if (state_.compare_exchange_strong(full, kRun))
                state_.notify_one();
        }
    }
    if (!producer_.joinable()) {
        fill(ring_[taken_ % kChunks]);
        head_.store(taken_ + 1, std::memory_order_relaxed);
    } else if (head_.load(std::memory_order_acquire) == taken_) {
        // The ring is empty: the producer has fallen behind the core.
        const uint64_t t0 = telemetry::nowNs();
        while (head_.load(std::memory_order_acquire) == taken_)
            head_.wait(taken_, std::memory_order_acquire);
        ++waits_;
        waitNs_ += telemetry::nowNs() - t0;
    }
    ops_ = ring_[taken_ % kChunks].ops;
    pos_ = 0;
}

void
RunAheadStream::nextEpoch()
{
    if (++heldTicks_ == ticksToRewind_)
        rewind();
}

void
RunAheadStream::rewind()
{
    park();
    // Seek to the first op the core has not taken: into the held chunk,
    // else to the first chunk published since the last rewind. With
    // neither, the generator has made no op since and stands there.
    const Chunk &first = ring_[taken_ % kChunks];
    if (ops_ != nullptr) {
        gen_.seek(first.start);
        for (uint32_t i = 0; i < pos_; ++i)
            (void)gen_.next();
    } else if (head_.load(std::memory_order_relaxed) != taken_) {
        gen_.seek(first.start);
    }
    for (; heldTicks_ > 0; --heldTicks_)
        gen_.nextEpoch();
    phase_ = gen_.currentPhase();
    ticksToRewind_ = gen_.epochsLeftInPhase();

    ops_ = nullptr;
    pos_ = kChunkOps;
    taken_ = 0;
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
    resume();
    ++rewinds_;
}

void
RunAheadStream::park()
{
    if (!producer_.joinable())
        return;
    state_.store(kParkRequested);
    state_.notify_one();
    while (state_.load(std::memory_order_acquire) == kParkRequested)
        state_.wait(kParkRequested, std::memory_order_acquire);
}

void
RunAheadStream::resume()
{
    if (!producer_.joinable())
        return;
    state_.store(kRun);
    state_.notify_one();
}

void
RunAheadStream::produce()
{
    for (;;) {
        const uint32_t state = state_.load(std::memory_order_acquire);
        if (state == kStop)
            return;
        if (state == kParkRequested) {
            state_.store(kParked);
            state_.notify_one();
            state_.wait(kParked, std::memory_order_acquire);
            continue;
        }
        const uint32_t head = head_.load(std::memory_order_relaxed);
        if (head - tail_.load(std::memory_order_acquire) == kChunks) {
            // Full: sleep until the consumer has freed half the ring.
            // Storing kFull before reading tail_ pairs with the
            // consumer's release of a chunk (see takeChunk()).
            uint32_t run = kRun;
            if (!state_.compare_exchange_strong(run, kFull))
                continue; // a command arrived
            if (head - tail_.load() > kChunks / 2) {
                state_.wait(kFull, std::memory_order_acquire);
            } else {
                uint32_t full = kFull;
                state_.compare_exchange_strong(full, kRun);
            }
            continue;
        }
        fill(ring_[head % kChunks]);
        head_.store(head + 1);
        head_.notify_one();
    }
}

} // namespace mimoarch
