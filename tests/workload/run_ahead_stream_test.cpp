/**
 * @file
 * Lock-step test for RunAheadStream: it steps beside a plain
 * SyntheticStream on the same seed, and after every op all six MicroOp
 * fields, and after every epoch the phase, must agree. Scripted epochs
 * put each phase boundary, where the source rewinds its producer,
 * after an epoch that took no op, one that ended exactly on a chunk
 * boundary, one that ended mid-chunk and one that took more ops than
 * the whole ring holds. The source is also destroyed while its
 * producer fills a chunk, sleeps on a full ring and is parked, and the
 * no-thread path runs the same script.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "workload/run_ahead_stream.hpp"
#include "workload/spec_suite.hpp"
#include "workload/synthetic_stream.hpp"

namespace mimoarch {

/** Reaches into RunAheadStream's producer state (a friend of it). */
struct RunAheadStreamTestPeer
{
    static bool threaded(const RunAheadStream &s)
    {
        return s.producer_.joinable();
    }

    static bool full(const RunAheadStream &s)
    {
        return s.state_.load() == RunAheadStream::kFull;
    }

    static uint32_t published(const RunAheadStream &s)
    {
        return s.head_.load();
    }

    /** Park the producer and leave it parked. */
    static void park(RunAheadStream &s) { s.park(); }

    static bool parked(const RunAheadStream &s)
    {
        return s.state_.load() == RunAheadStream::kParked;
    }

    /** Make the spawn of sources built on this thread fail. */
    static void failSpawn(bool fail) { RunAheadStream::failSpawn_ = fail; }
};

namespace {

using Peer = RunAheadStreamTestPeer;

/** While one lives, sources built on this thread run without a thread. */
struct NoThread
{
    NoThread() { Peer::failSpawn(true); }
    ~NoThread() { Peer::failSpawn(false); }
    NoThread(const NoThread &) = delete;
    NoThread &operator=(const NoThread &) = delete;
};

constexpr uint64_t kChunkOps = RunAheadStream::kChunkOps;
constexpr uint64_t kRingOps = kChunkOps * RunAheadStream::kChunks;

/** How the epoch before a phase boundary ends, by boundary index. */
enum class Ending { MidChunk, ChunkEnd, NoOps, PastRing };

/**
 * Ops an epoch takes when @p since ops were taken since the last
 * boundary (the source's chunks restart there): a few (0..40, from
 * @p script) in most epochs, and the boundary's ending in the epoch
 * whose tick enters the next phase.
 */
uint64_t
opsInEpoch(Rng &script, bool last_in_phase, size_t boundary,
           uint64_t since)
{
    const uint64_t few = script.uniformInt(41);
    if (!last_in_phase)
        return few;
    const uint64_t to_chunk_end = kChunkOps - since % kChunkOps;
    switch (static_cast<Ending>(boundary % 4)) {
      case Ending::MidChunk: {
        const uint64_t n = 1 + few % 7;
        return n == to_chunk_end ? n + 1 : n;
      }
      case Ending::ChunkEnd:
        return to_chunk_end;
      case Ending::NoOps:
        return 0;
      case Ending::PastRing:
        return kRingOps + few;
    }
    return 0;
}

/** Poll @p done for up to 10 s. */
template <typename Pred>
bool
eventually(Pred done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
}

bool
sameOp(const MicroOp &a, const MicroOp &b)
{
    return a.cls == b.cls && a.srcDist0 == b.srcDist0 &&
        a.srcDist1 == b.srcDist1 && a.addr == b.addr && a.pc == b.pc &&
        a.taken == b.taken;
}

/**
 * Step a RunAheadStream and a SyntheticStream of (@p app, @p salt)
 * through @p boundaries phase boundaries in lock-step; returns false
 * (after a failure) on the first difference.
 */
bool
expectLockStep(const AppSpec &app, uint64_t salt, size_t boundaries)
{
    RunAheadStream ahead(app, salt);
    SyntheticStream plain(app, salt);
    Rng script(salt * 131 + app.seed);
    uint64_t taken = 0;
    uint64_t since = 0; //!< Ops taken since the last boundary.
    size_t boundary = 0;
    while (boundary < boundaries) {
        const bool last = plain.epochsLeftInPhase() == 1;
        const uint64_t n = opsInEpoch(script, last, boundary, since);
        since += n;
        for (uint64_t i = 0; i < n; ++i, ++taken) {
            const MicroOp a = ahead.next();
            const MicroOp b = plain.next();
            if (!sameOp(a, b)) {
                ADD_FAILURE()
                    << app.name << " salt " << salt << " op " << taken
                    << " (boundary " << boundary << "): cls " << int(a.cls)
                    << "/" << int(b.cls) << " dist0 " << a.srcDist0 << "/"
                    << b.srcDist0 << " dist1 " << a.srcDist1 << "/"
                    << b.srcDist1 << " addr " << a.addr << "/" << b.addr
                    << " pc " << a.pc << "/" << b.pc << " taken " << a.taken
                    << "/" << b.taken;
                return false;
            }
        }
        if (last && n == 0 && Peer::threaded(ahead)) {
            // Let the producer fill the ring first, so that the rewind
            // also finds chunks published since the last one and a
            // producer asleep on a full ring.
            if (!eventually([&] { return Peer::full(ahead); })) {
                ADD_FAILURE() << app.name << ": the ring never filled";
                return false;
            }
        }
        ahead.nextEpoch();
        plain.nextEpoch();
        if (ahead.currentPhase() != plain.currentPhase()) {
            ADD_FAILURE() << app.name << " salt " << salt << " epoch "
                          << plain.epoch() << ": phase "
                          << ahead.currentPhase() << "/"
                          << plain.currentPhase();
            return false;
        }
        if (last) {
            ++boundary;
            since = 0;
        }
    }
    return true;
}

TEST(RunAheadStream, EverySuiteAppMatchesAcrossPhaseBoundaries)
{
    for (const AppSpec &app : Spec2006Suite::all()) {
        for (uint64_t salt = 0; salt < 4; ++salt) {
            // Four boundaries: each of the four endings once.
            ASSERT_TRUE(expectLockStep(app, salt, 4));
        }
    }
}

/** Phases of one epoch (0 counts as 1): every tick is a boundary. */
AppSpec
shortPhaseApp()
{
    AppSpec app;
    app.name = "short";
    app.seed = 11;
    for (const uint64_t length : {1, 2, 0, 3, 1}) {
        PhaseSpec p;
        p.lengthEpochs = length;
        p.streamFrac = 0.5;
        p.streamBytes = 4096;
        app.phases.push_back(p);
    }
    return app;
}

TEST(RunAheadStream, BackToBackBoundariesMatch)
{
    // Boundaries one epoch apart, so a boundary often follows a rewind
    // with no op, or only part of a chunk, taken in between.
    for (uint64_t salt = 0; salt < 4; ++salt)
        ASSERT_TRUE(expectLockStep(shortPhaseApp(), salt, 64));
}

TEST(RunAheadStream, NoThreadPathMatches)
{
    const NoThread no_thread;
    {
        const RunAheadStream s(Spec2006Suite::byName("gamess"), 0);
        ASSERT_FALSE(Peer::threaded(s));
    }
    for (const char *name : {"gamess", "mcf", "namd", "astar"}) {
        for (uint64_t salt = 0; salt < 2; ++salt)
            ASSERT_TRUE(
                expectLockStep(Spec2006Suite::byName(name), salt, 4));
    }
    for (uint64_t salt = 0; salt < 2; ++salt)
        ASSERT_TRUE(expectLockStep(shortPhaseApp(), salt, 64));
}

TEST(RunAheadStream, DestroyedWhileFillingAChunk)
{
    // The producer fills the whole ring right after the spawn; the
    // source goes out of scope as soon as the first chunk is published.
    for (int i = 0; i < 20; ++i) {
        RunAheadStream s(Spec2006Suite::byName("namd"), i);
        ASSERT_TRUE(Peer::threaded(s));
        ASSERT_TRUE(eventually([&] { return Peer::published(s) > 0; }));
    }
}

TEST(RunAheadStream, DestroyedWhileWaitingOnAFullRing)
{
    RunAheadStream s(Spec2006Suite::byName("mcf"), 0);
    ASSERT_TRUE(Peer::threaded(s));
    (void)s.next();
    ASSERT_TRUE(eventually([&] { return Peer::full(s); }));
    EXPECT_EQ(Peer::published(s), RunAheadStream::kChunks);
}

TEST(RunAheadStream, DestroyedWhileParked)
{
    RunAheadStream s(Spec2006Suite::byName("povray"), 0);
    ASSERT_TRUE(Peer::threaded(s));
    (void)s.next();
    Peer::park(s);
    EXPECT_TRUE(Peer::parked(s));
}

} // namespace
} // namespace mimoarch
