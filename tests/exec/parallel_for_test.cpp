/**
 * @file
 * parallelFor unit tests: every index runs exactly once, one thread
 * runs inline in index order, plain writes are visible on return, the
 * threads truly run at once, nested calls complete, and a throwing
 * index neither stops the others nor hides which failure surfaces.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace mimoarch {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    constexpr size_t kIndices = 2000;
    std::vector<std::atomic<int>> hits(kIndices);
    parallelFor(kIndices, 4, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kIndices; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, OneThreadRunsInlineInIndexOrder)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    parallelFor(16, 1, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller) << i;
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ZeroIndicesIsANoOp)
{
    int calls = 0;
    parallelFor(0, 4, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PlainWritesAreVisibleAfterReturn)
{
    // Non-atomic writes published only by the joins: TSan checks the
    // happens-before edges in the instrumented copy of the suite.
    std::vector<int> slots(512, 0);
    parallelFor(slots.size(), 4,
                [&](size_t i) { slots[i] = static_cast<int>(i) + 1; });
    for (size_t i = 0; i < slots.size(); ++i)
        EXPECT_EQ(slots[i], static_cast<int>(i) + 1);
}

TEST(ParallelFor, TwoThreadsRunAtOnce)
{
    // Each index spins until the other has started; this returns only
    // if both threads truly run at once.
    std::atomic<int> started{0};
    parallelFor(2, 2, [&](size_t) {
        started.fetch_add(1);
        while (started.load() < 2)
            std::this_thread::yield();
    });
    EXPECT_EQ(started.load(), 2);
}

TEST(ParallelFor, NestedCallsComplete)
{
    std::atomic<int> count{0};
    parallelFor(8, 2, [&](size_t) {
        count.fetch_add(1);
        parallelFor(4, 2, [&](size_t) { count.fetch_add(1); });
    });
    EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(ParallelFor, LowestIndexExceptionIsRethrownAfterEveryIndexRan)
{
    for (unsigned threads : {1u, 4u}) {
        std::vector<std::atomic<int>> hits(64);
        try {
            parallelFor(hits.size(), threads, [&](size_t i) {
                hits[i].fetch_add(1);
                if (i == 7 || i == 40)
                    throw std::runtime_error(std::to_string(i));
            });
            ADD_FAILURE() << "expected a throw at " << threads
                          << " thread(s)";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "7") << threads << " thread(s)";
        }
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << " at " << threads << " thread(s)";
    }
}

} // namespace
} // namespace mimoarch
