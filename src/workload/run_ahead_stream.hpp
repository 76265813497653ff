/**
 * @file
 * A run-ahead InstructionSource: the ops of a SyntheticStream, generated
 * on a producer thread a ring of chunks ahead of the core that takes
 * them.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "workload/synthetic_stream.hpp"

namespace mimoarch {

/**
 * Feeds a core the op sequence of SyntheticStream(spec, seed_salt), bit
 * for bit, while a producer thread generates it ahead of the core.
 *
 * Within a phase the ops depend only on the generator's cursor, so the
 * producer fills a fixed ring of chunks freely and stamps each chunk
 * with the cursor of its first op. nextEpoch() holds its ticks until
 * one would enter the next phase. That tick rewinds: it parks the
 * producer, seeks the generator to the first op the core has not taken
 * (the held chunk's cursor, then a replay of the at most kChunkOps ops
 * already taken from it), applies the held ticks, so that the phase
 * entry draws from the same Rng position as a plain SyntheticStream,
 * and restarts the producer.
 *
 * Both sides sleep on std::atomic wait/notify: the core when the ring
 * is empty, the producer when it is full, until half of it is free.
 * The thread lives exactly as long as the object; the destructor stops
 * and joins it. When no thread can be spawned, next() fills the same
 * chunks itself.
 *
 * The core's side counts its waits on an empty ring, the time in them
 * and its rewinds, and the destructor publishes the totals to the
 * registry's stream.* counters.
 */
class RunAheadStream final : public InstructionSource
{
  public:
    explicit RunAheadStream(const AppSpec &spec, uint64_t seed_salt = 0);
    ~RunAheadStream() override;

    RunAheadStream(const RunAheadStream &) = delete;
    RunAheadStream &operator=(const RunAheadStream &) = delete;

    MicroOp
    next() override
    {
        if (pos_ == kChunkOps) [[unlikely]]
            takeChunk();
        return ops_[pos_++];
    }

    /** Advance the phase clock by one controller epoch. */
    void nextEpoch();

    /** Index into spec().phases of the current phase. */
    size_t currentPhase() const { return phase_; }

    const AppSpec &spec() const { return gen_.spec(); }

    /** Ops per chunk: the most a rewind replays. */
    static constexpr uint32_t kChunkOps = 256;
    /** Chunks in the ring (24 KiB of ops). */
    static constexpr uint32_t kChunks = 4;

  private:
    friend struct RunAheadStreamTestPeer;

    struct alignas(64) Chunk
    {
        SyntheticStream::Cursor start; //!< The generator before ops[0].
        MicroOp ops[kChunkOps];
    };

    /** Producer states; the consumer moves all but Full and Parked. */
    enum State : uint32_t {
        kRun,
        kFull,          //!< Producer asleep until half the ring is free.
        kParkRequested, //!< Consumer waits for the producer to park.
        kParked,        //!< Producer asleep; the consumer owns gen_.
        kStop,
    };

    void takeChunk();
    void publishMetrics() const;
    void fill(Chunk &chunk);
    void rewind();
    void park();
    void resume();
    void produce();

    // Consumer side: the core's thread.
    alignas(64) const MicroOp *ops_ = nullptr; //!< Held chunk's ops.
    uint32_t pos_ = kChunkOps;   //!< Ops taken from the held chunk.
    uint32_t taken_ = 0;         //!< Chunks released to the producer.
    uint64_t heldTicks_ = 0;     //!< nextEpoch() calls gen_ has not seen.
    uint64_t ticksToRewind_ = 0; //!< heldTicks_ that enter a new phase.
    size_t phase_ = 0;
    uint64_t waits_ = 0;   //!< takeChunk() found the ring empty.
    uint64_t waitNs_ = 0;  //!< Time in those waits.
    uint64_t rewinds_ = 0; //!< Phase-boundary rewinds.
    std::unique_ptr<Chunk[]> ring_;

    // Shared, one cache line each. Chunk i lives in ring_[i % kChunks].
    alignas(64) std::atomic<uint32_t> head_{0}; //!< Chunks published.
    alignas(64) std::atomic<uint32_t> tail_{0}; //!< Chunks released.
    alignas(64) std::atomic<uint32_t> state_{kRun};

    /** The producer's while it runs, the consumer's while it is parked. */
    alignas(64) SyntheticStream gen_;

    /** Declared last: the producer uses every member above. */
    alignas(64) std::thread producer_;

    /** Test seam: make the constructor's spawn fail on this thread. */
    static inline thread_local bool failSpawn_ = false;
};

} // namespace mimoarch
