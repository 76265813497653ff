/**
 * @file
 * Fixed-capacity ring buffer used for the core's fetch queue. Replaces
 * std::deque in the per-cycle hot loop: storage is one contiguous
 * allocation sized once at construction, so pushes/pops never touch the
 * heap.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "common/logging.hpp"

namespace mimoarch {

/** Contiguous FIFO with a hard capacity. */
template <typename T>
class RingBuffer
{
  public:
    RingBuffer() = default;

    /** (Re)allocate for @p capacity elements and empty the buffer. */
    void
    reset(size_t capacity)
    {
        buf_.assign(capacity, T{});
        capacity_ = capacity;
        head_ = 0;
        count_ = 0;
    }

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    size_t capacity() const { return capacity_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    void
    push_back(const T &v)
    {
        if (count_ == capacity_)
            panic("RingBuffer overflow (capacity ", capacity_, ")");
        buf_[wrap(head_ + count_)] = v;
        ++count_;
    }

    void
    pop_front()
    {
        if (count_ == 0)
            panic("RingBuffer::pop_front on empty buffer");
        head_ = wrap(head_ + 1);
        --count_;
    }

  private:
    // Valid because every caller passes i < 2*capacity: head_ is
    // always < capacity and the logical index is <= count_ <= capacity.
    size_t
    wrap(size_t i) const
    {
        return i >= capacity_ ? i - capacity_ : i;
    }

    std::vector<T> buf_;
    size_t capacity_ = 0; //!< buf_.size(), kept off the vector's pointers.
    size_t head_ = 0;
    size_t count_ = 0;
};

} // namespace mimoarch
