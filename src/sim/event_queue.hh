/**
 * @file
 * Global discrete-event queue.
 *
 * The whole machine is driven by a single event queue: components
 * schedule callbacks at absolute ticks, and ties are broken by insertion
 * order so that simulation is fully deterministic.
 *
 * The engine is allocation-free in steady state:
 *
 *  - Events sit in a preallocated, free-listed pool. A scheduled
 *    event always fires (no component needs to retract one), so a
 *    slot holds only the event itself, and the front of every
 *    container is the next event to fire.
 *  - Callbacks are stored inline (InlineCallback) with no heap
 *    fallback; an oversized capture list is a compile error.
 *  - Short-delay schedules — the overwhelmingly common case (cache,
 *    bus, mesh and CPU latencies are tens of ticks) — go into a
 *    256-bucket time wheel whose occupied buckets are tracked in a
 *    bitmap; only schedules ≥ 256 ticks out touch the overflow binary
 *    heap.
 *
 * Sharded mode (setShardOrder) changes only the tie-break rule: instead
 * of a queue-global insertion counter, every event carries an
 * (owner, per-owner counter) key packed into `seq`, where the owner is
 * the node on whose behalf the event was scheduled. Per-owner counters
 * advance in each node's own deterministic event order, so the total
 * (when, seq) order is identical no matter how nodes are partitioned
 * into shards — the property the windowed parallel engine
 * (sys/machine.cc runSharded) relies on for byte-identical statistics
 * at every shard count. Because wheel buckets are FIFO by insertion
 * (not by seq), sharded mode drains each tick through a small staging
 * heap (runWindow) that restores seq order among same-tick events.
 */

#ifndef PSIM_SIM_EVENT_QUEUE_HH
#define PSIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace psim
{

class EventQueue
{
  public:
    /**
     * Inline storage must hold the largest hot-path capture list:
     * [this, Message, bool] on the protocol send path is 56 bytes.
     */
    static constexpr std::size_t kCallbackCapacity = 64;

    using Callback = InlineCallback<kCallbackCapacity>;

    EventQueue();
    ~EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Switch to the sharded deterministic tie-break: events are ordered
     * by (when, owner, per-owner counter) instead of (when, global
     * counter). Must be called on an empty queue, before any schedule.
     * @param num_owners one counter per machine node
     */
    void
    setShardOrder(unsigned num_owners)
    {
        psim_assert(empty(), "setShardOrder on a non-empty queue");
        _shardOrder = true;
        _ownerCtr.assign(num_owners, 0);
    }

    /**
     * Set the node on whose behalf subsequent schedules happen. In
     * sharded mode runWindow() maintains this automatically (each event
     * inherits the owner of the event that scheduled it); the machine
     * sets it explicitly only for the initial per-node start events.
     */
    void setContextOwner(NodeId owner) { _ctxOwner = owner; }

    /**
     * Schedule @p cb at absolute tick @p when.
     * @pre when >= now()
     */
    void
    schedule(Tick when, Callback cb)
    {
        psim_assert(when >= _now,
                "schedule in the past: when=%llu now=%llu",
                (unsigned long long)when, (unsigned long long)_now);
        std::uint32_t slot = allocSlot();
        Event &e = _pool[slot];
        e.when = when;
        if (_shardOrder) {
            e.owner = _ctxOwner;
            e.seq = (static_cast<std::uint64_t>(_ctxOwner) << 48) |
                    _ownerCtr[_ctxOwner]++;
        } else {
            e.owner = 0;
            e.seq = _nextSeq++;
        }
        e.cb = std::move(cb);
        e.next = kNil;
        if (_stagingActive && when == _stagingTick) {
            // runWindow is draining this very tick: a same-tick child
            // must enter the staging heap directly, where its seq places
            // it relative to the entries still staged (a wheel bucket
            // would only be looked at again next tick).
            _staging.push_back(StagedEntry{e.seq, slot});
            std::push_heap(_staging.begin(), _staging.end());
        } else if (when - _now < kWheelSize) {
            wheelInsert(slot, when);
        } else {
            heapInsert(slot, when, e.seq);
        }
    }

    /**
     * Schedule on behalf of node @p owner (cross-shard message delivery
     * at a window boundary: the event's ordering key must be stamped
     * from the destination node's counter, not the caller's context).
     */
    void
    scheduleRemote(Tick when, NodeId owner, Callback cb)
    {
        NodeId saved = _ctxOwner;
        _ctxOwner = owner;
        schedule(when, std::move(cb));
        _ctxOwner = saved;
    }

    /** Schedule @p cb @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback cb)
    {
        schedule(_now + delta, std::move(cb));
    }

    /** True when the wheel, the heap and the staging heap are empty. */
    bool
    empty() const
    {
        return _wheelCount == 0 && _heap.empty() && _staging.empty();
    }

    /**
     * Run the next event. @return false if the queue was empty.
     */
    bool runOne();

    /**
     * Run until the queue drains or @p limit ticks have been simulated.
     * @return the tick at which execution stopped.
     */
    Tick run(Tick limit = kTickNever);

    /** Tick of the earliest scheduled event, or kTickNever when drained. */
    Tick
    nextWhen() const
    {
        Next n;
        return peekNext(n) ? _pool[n.slot].when : kTickNever;
    }

    /**
     * Jump time forward to @p t without running anything.
     * @pre no event is scheduled before @p t
     */
    void
    advanceTo(Tick t)
    {
        psim_assert(t >= _now, "advanceTo into the past");
        psim_assert(nextWhen() >= t, "advanceTo over a scheduled event");
        _now = t;
    }

    /**
     * Sharded mode: fire every event with when < @p end, draining each
     * tick through the staging heap so same-tick events run in seq
     * order regardless of which container held them. @return now().
     */
    Tick runWindow(Tick end);

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::uint32_t kWheelBits = 8;
    static constexpr std::uint32_t kWheelSize = 1u << kWheelBits;
    static constexpr std::uint32_t kWheelMask = kWheelSize - 1;

    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Callback cb;
        std::uint32_t next = kNil; ///< bucket chain or free list
        NodeId owner = 0;       ///< sharded mode: scheduling node
    };

    /**
     * One same-tick event pulled out of its container by runWindow,
     * waiting in the staging min-heap for its seq-ordered turn.
     */
    struct StagedEntry
    {
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        operator<(const StagedEntry &o) const
        {
            return seq > o.seq; // std::push_heap max-heap -> min-seq top
        }
    };

    /** Overflow heap entry for schedules beyond the wheel horizon. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        operator<(const HeapEntry &o) const
        {
            // std::push_heap builds a max-heap; invert for earliest-first.
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    /** Where peekNext() found the next event. */
    struct Next
    {
        std::uint32_t slot;
        std::uint32_t bucket; ///< valid when wheel
        bool wheel;
    };

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);
    void growPool();

    void wheelInsert(std::uint32_t slot, Tick when);
    void heapInsert(std::uint32_t slot, Tick when, std::uint64_t seq);

    /** First occupied bucket at circular distance >= 0 from @p from. */
    std::uint32_t firstOccupiedBucket(std::uint32_t from) const;

    /**
     * Locate the next event without removing it.
     * @return false when drained.
     */
    bool peekNext(Next &n) const;

    /** Remove the event found by peekNext() from its container. */
    void removeNext(const Next &n);

    /** Pop, free and invoke the event found by peekNext(). */
    void fire(const Next &n);

    Tick _now = 0;
    std::uint64_t _nextSeq = 1;

    // Sharded deterministic ordering (setShardOrder / runWindow).
    bool _shardOrder = false;
    bool _stagingActive = false;
    Tick _stagingTick = 0;
    NodeId _ctxOwner = 0;
    std::vector<std::uint64_t> _ownerCtr; ///< per-node seq counters
    std::vector<StagedEntry> _staging;    ///< same-tick reorder heap

    std::vector<Event> _pool;
    std::uint32_t _freeHead = kNil;

    // Two-level front: time wheel for [now, now + kWheelSize) ...
    std::array<std::uint32_t, kWheelSize> _bucketHead;
    std::array<std::uint32_t, kWheelSize> _bucketTail;
    std::array<std::uint64_t, kWheelSize / 64> _occupied;
    std::size_t _wheelCount = 0;

    // ... and a binary min-heap for everything farther out.
    std::vector<HeapEntry> _heap;
};

} // namespace psim

#endif // PSIM_SIM_EVENT_QUEUE_HH
