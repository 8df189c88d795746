#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

namespace psim
{

namespace
{

constexpr std::size_t kInitialPool = 1024;

} // namespace

EventQueue::EventQueue()
{
    _bucketHead.fill(kNil);
    _bucketTail.fill(kNil);
    _occupied.fill(0);
    _pool.reserve(kInitialPool);
    growPool();
}

void
EventQueue::growPool()
{
    std::size_t old = _pool.size();
    std::size_t grown = old ? old * 2 : kInitialPool;
    psim_assert(grown < kNil, "event pool exceeded 2^32 slots");
    _pool.resize(grown);
    // Thread the new slots onto the free list in increasing order.
    for (std::size_t s = grown; s-- > old;) {
        _pool[s].next = _freeHead;
        _freeHead = static_cast<std::uint32_t>(s);
    }
}

std::uint32_t
EventQueue::allocSlot()
{
    if (_freeHead == kNil)
        growPool();
    std::uint32_t slot = _freeHead;
    _freeHead = _pool[slot].next;
    return slot;
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    // The callback was already moved out for invocation.
    _pool[slot].next = _freeHead;
    _freeHead = slot;
}

void
EventQueue::wheelInsert(std::uint32_t slot, Tick when)
{
    std::uint32_t b = static_cast<std::uint32_t>(when) & kWheelMask;
    if (_bucketTail[b] == kNil) {
        _bucketHead[b] = slot;
        _occupied[b >> 6] |= 1ULL << (b & 63);
    } else {
        _pool[_bucketTail[b]].next = slot;
    }
    _bucketTail[b] = slot;
    ++_wheelCount;
}

void
EventQueue::heapInsert(std::uint32_t slot, Tick when, std::uint64_t seq)
{
    _heap.push_back(HeapEntry{when, seq, slot});
    std::push_heap(_heap.begin(), _heap.end());
}

std::uint32_t
EventQueue::firstOccupiedBucket(std::uint32_t from) const
{
    // Scan the occupancy bitmap circularly starting at bit `from`.
    std::uint32_t word = from >> 6;
    std::uint64_t bits = _occupied[word] & (~0ULL << (from & 63));
    for (std::size_t i = 0; i <= _occupied.size(); ++i) {
        if (bits)
            return static_cast<std::uint32_t>(
                    (word << 6) + std::countr_zero(bits));
        word = (word + 1) & (static_cast<std::uint32_t>(_occupied.size()) -
                             1);
        bits = _occupied[word];
    }
    return kNil;
}

bool
EventQueue::peekNext(Next &n) const
{
    // Candidate from the wheel: the first occupied bucket in circular
    // order from now's position holds the minimal wheel tick (all wheel
    // events lie in [now, now + kWheelSize)), and `when` is
    // non-decreasing along a bucket chain, so its head is the minimum.
    std::uint32_t wslot = kNil;
    std::uint32_t wbucket = 0;
    if (_wheelCount > 0) {
        wbucket = firstOccupiedBucket(
                static_cast<std::uint32_t>(_now) & kWheelMask);
        psim_assert(wbucket != kNil, "wheel count/bitmap out of sync");
        wslot = _bucketHead[wbucket];
    }

    if (_heap.empty()) {
        if (wslot == kNil)
            return false;
        n = Next{wslot, wbucket, true};
        return true;
    }
    const HeapEntry &h = _heap.front();
    if (wslot != kNil) {
        const Event &w = _pool[wslot];
        if (w.when < h.when || (w.when == h.when && w.seq < h.seq)) {
            n = Next{wslot, wbucket, true};
            return true;
        }
    }
    n = Next{h.slot, 0, false};
    return true;
}

void
EventQueue::removeNext(const Next &n)
{
    if (n.wheel) {
        std::uint32_t b = n.bucket;
        psim_assert(_bucketHead[b] == n.slot, "wheel cursor desynced");
        _bucketHead[b] = _pool[n.slot].next;
        if (_bucketHead[b] == kNil) {
            _bucketTail[b] = kNil;
            _occupied[b >> 6] &= ~(1ULL << (b & 63));
        }
        --_wheelCount;
    } else {
        psim_assert(!_heap.empty() && _heap.front().slot == n.slot,
                "heap cursor desynced");
        std::pop_heap(_heap.begin(), _heap.end());
        _heap.pop_back();
    }
}

void
EventQueue::fire(const Next &n)
{
    removeNext(n);
    Event &e = _pool[n.slot];
    psim_assert(e.when >= _now, "event queue went backwards");
    _now = e.when;
    Callback cb = std::move(e.cb);
    _ctxOwner = e.owner;
    // Free the slot before invoking so the callback can schedule into it.
    freeSlot(n.slot);
    cb();
}

Tick
EventQueue::runWindow(Tick end)
{
    psim_assert(_shardOrder, "runWindow requires shard ordering");
    Next n;
    while (peekNext(n)) {
        Tick t = _pool[n.slot].when;
        if (t >= end)
            break;
        psim_assert(t >= _now, "event queue went backwards");

        // Pull every event at tick t out of the wheel/heap into the
        // staging heap. Bucket chains are FIFO by insertion, which in
        // sharded mode is not seq order (a window-boundary delivery for
        // a high-numbered owner may have been inserted before an
        // in-window event of a low-numbered one); the heap restores the
        // (owner, counter) order that makes firing shard-count
        // invariant.
        _stagingTick = t;
        _stagingActive = true;
        do {
            const Event &e = _pool[n.slot];
            StagedEntry staged{e.seq, n.slot};
            removeNext(n);
            _staging.push_back(staged);
            std::push_heap(_staging.begin(), _staging.end());
        } while (peekNext(n) && _pool[n.slot].when == t);
        _now = t;

        // Drain in seq order. Callbacks may schedule further events at
        // this same tick; schedule() feeds those straight into the
        // staging heap, and per-owner counters are monotone, so a child
        // always sorts after its (already fired) parent.
        while (!_staging.empty()) {
            std::pop_heap(_staging.begin(), _staging.end());
            StagedEntry s = _staging.back();
            _staging.pop_back();
            Event &e = _pool[s.slot];
            Callback cb = std::move(e.cb);
            _ctxOwner = e.owner;
            freeSlot(s.slot);
            cb();
        }
        _stagingActive = false;
    }
    return _now;
}

bool
EventQueue::runOne()
{
    Next n;
    if (!peekNext(n))
        return false;
    fire(n);
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    Next n;
    while (peekNext(n)) {
        if (_pool[n.slot].when > limit) {
            _now = limit;
            return _now;
        }
        fire(n);
    }
    return _now;
}

} // namespace psim
