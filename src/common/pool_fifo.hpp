/**
 * @file
 * Pooled FIFO lists: many independent queues sharing one node pool, for
 * the request path's waiter queues (fill waiters, pending region
 * acquisitions, MSHR-full backlog). A std::deque / vector-of-vectors here
 * allocated per enqueue burst; the pool grows to the high-water mark of
 * simultaneously queued items once and recycles nodes through a free
 * list afterwards — zero steady-state allocations.
 *
 * A List is two 4-byte indices into the pool, cheap to store as the
 * value of an AddrTable. Lists must be drained (or the store cleared)
 * before the store is destroyed; nodes are returned on pop().
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace cgct {

template <typename T>
class PoolFifo
{
  public:
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    /** One FIFO's handles; value-type, safe to move between tables. */
    struct List {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;

        bool empty() const { return head == kNil; }
    };

    /** Append @p v to @p list. */
    void
    push(List &list, T &&v)
    {
        const std::uint32_t n = takeNode();
        nodes_[n].value = std::move(v);
        nodes_[n].next = kNil;
        if (list.tail == kNil) {
            list.head = list.tail = n;
        } else {
            nodes_[list.tail].next = n;
            list.tail = n;
        }
    }

    /**
     * Pop the front of @p list into @p out. The node is recycled before
     * returning, so @p out may be pushed back (even to the same list)
     * from inside the caller's drain loop.
     */
    bool
    pop(List &list, T &out)
    {
        if (list.head == kNil)
            return false;
        const std::uint32_t n = list.head;
        list.head = nodes_[n].next;
        if (list.head == kNil)
            list.tail = kNil;
        out = std::move(nodes_[n].value);
        nodes_[n].value = T{};
        nodes_[n].next = freeHead_;
        freeHead_ = n;
        return true;
    }

  private:
    struct Node {
        T value{};
        std::uint32_t next = kNil;
    };

    std::uint32_t
    takeNode()
    {
        if (freeHead_ != kNil) {
            const std::uint32_t n = freeHead_;
            freeHead_ = nodes_[n].next;
            return n;
        }
        nodes_.emplace_back();
        return static_cast<std::uint32_t>(nodes_.size() - 1);
    }

    std::vector<Node> nodes_;
    std::uint32_t freeHead_ = kNil;
};

} // namespace cgct
