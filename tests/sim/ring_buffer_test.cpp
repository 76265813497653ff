/**
 * @file
 * RingBuffer unit tests: wrap-around correctness against a deque
 * reference and the full/empty edge behavior (hard panics).
 */

#include <gtest/gtest.h>

#include <deque>
#include <random>

#include "sim/ring_buffer.hpp"

namespace mimoarch {
namespace {

TEST(RingBufferTest, StartsEmptyWithZeroCapacity)
{
    RingBuffer<int> rb;
    EXPECT_EQ(rb.size(), 0u);
    EXPECT_EQ(rb.capacity(), 0u);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBufferTest, ResetSetsCapacityAndEmpties)
{
    RingBuffer<int> rb;
    rb.reset(8);
    EXPECT_EQ(rb.capacity(), 8u);
    EXPECT_TRUE(rb.empty());

    rb.push_back(1);
    rb.push_back(2);
    rb.reset(4);
    EXPECT_EQ(rb.capacity(), 4u);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBufferTest, FifoOrderAcrossWrap)
{
    RingBuffer<int> rb;
    rb.reset(4);
    // Advance head so subsequent pushes wrap the physical end.
    for (int cycle = 0; cycle < 10; ++cycle) {
        rb.push_back(cycle);
        EXPECT_EQ(rb.front(), cycle);
        rb.pop_front();
    }
    rb.push_back(100);
    rb.push_back(101);
    rb.push_back(102);
    rb.push_back(103); // fills to capacity across the wrap point
    EXPECT_EQ(rb.size(), 4u);
    EXPECT_EQ(rb.front(), 100);
    rb.pop_front();
    EXPECT_EQ(rb.front(), 101);
    EXPECT_EQ(rb.size(), 3u);
}

TEST(RingBufferTest, IndexingMatchesDequeReference)
{
    // Randomized push/pop schedule checked step by step against a
    // deque: the push/pop/front pattern of the per-cycle fetch queue.
    RingBuffer<uint64_t> rb;
    std::deque<uint64_t> ref;
    const size_t cap = 16;
    rb.reset(cap);
    std::mt19937_64 rng(12345);
    uint64_t next = 0;
    for (int step = 0; step < 2000; ++step) {
        const bool can_push = rb.size() < cap;
        const bool can_pop = !rb.empty();
        const bool push =
            can_push && (!can_pop || (rng() & 1) == 0);
        if (push) {
            rb.push_back(next);
            ref.push_back(next);
            ++next;
        } else if (can_pop) {
            EXPECT_EQ(rb.front(), ref.front());
            rb.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(rb.size(), ref.size());
        if (!ref.empty()) {
            ASSERT_EQ(rb.front(), ref.front());
        }
    }
}

TEST(RingBufferDeathTest, OverflowPanics)
{
    RingBuffer<int> rb;
    rb.reset(2);
    rb.push_back(1);
    rb.push_back(2);
    EXPECT_DEATH(rb.push_back(3), "RingBuffer overflow");
}

TEST(RingBufferDeathTest, PopEmptyPanics)
{
    RingBuffer<int> rb;
    rb.reset(2);
    EXPECT_DEATH(rb.pop_front(), "pop_front on empty");
}

TEST(RingBufferDeathTest, ZeroCapacityPushPanics)
{
    RingBuffer<int> rb;
    EXPECT_DEATH(rb.push_back(1), "RingBuffer overflow");
}

} // namespace
} // namespace mimoarch
