/**
 * @file
 * Open-addressed hash table keyed by block address.
 *
 * The per-block maps on the miss path -- the home directory, the SLC's
 * pending-transaction (SLWB) table, its miss-class history and its
 * writeback set, and the infinite SLC's tag array -- are probed on
 * every coherence message and every prefetch candidate. A node-based
 * std::unordered_map costs a pointer chase and a heap allocation per
 * entry there; this table keeps keys and values in two flat arrays:
 *
 *  - Keys live in their own lane, so a probe touches dense 8-byte keys
 *    and reads a value only on a hit. kAddrInvalid marks an empty
 *    slot, so it can never be a key.
 *  - Fibonacci hashing (one multiply, high bits) with linear probing.
 *    The tables the paper's workloads build stay cache-resident, so
 *    hash latency sits on the probe's critical path; a multi-round
 *    finalizer (murmur3) measurably slowed whole-application runs. The
 *    multiplier is odd, hence bijective, so power-of-two-strided block
 *    addresses (column walks) still spread over the whole table.
 *  - The capacity is a power of two and doubles when the load factor
 *    would pass 0.7; nothing is allocated before the first insert.
 *  - Erase shifts the rest of the probe chain back instead of leaving a
 *    tombstone, so lookups never scan dead slots.
 *
 * Insertion may grow the table and erasure may move entries, so a
 * pointer returned by find() or insert() is valid only until the next
 * insert or erase on the same table. Iteration order (forEach) is slot
 * order, which depends on the insertion history; nothing that feeds a
 * simulated result may depend on it.
 */

#ifndef PSIM_SIM_FLAT_MAP_HH
#define PSIM_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace psim
{

template <typename V>
class FlatMap
{
  public:
    std::size_t size() const { return _used; }
    bool empty() const { return _used == 0; }
    std::size_t capacity() const { return _keys.size(); }

    /** The value stored for @p key; nullptr when absent. */
    V *
    find(Addr key)
    {
        std::size_t i = slotOf(key);
        return i == kNoSlot ? nullptr : &_vals[i];
    }

    const V *
    find(Addr key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(Addr key) const { return slotOf(key) != kNoSlot; }

    /**
     * The value for @p key, inserting a default-constructed one when
     * absent. @return the value and whether it was inserted.
     */
    std::pair<V *, bool>
    insert(Addr key)
    {
        if (V *v = find(key))
            return {v, false};
        psim_assert(key != kAddrInvalid, "the empty-slot key is not a key");
        if ((_used + 1) * 10 > _keys.size() * 7)
            grow();
        const std::size_t mask = _keys.size() - 1;
        std::size_t i = home(key);
        while (_keys[i] != kAddrInvalid)
            i = (i + 1) & mask;
        _keys[i] = key;
        ++_used;
        return {&_vals[i], true};
    }

    V &operator[](Addr key) { return *insert(key).first; }

    /** Remove @p key. @return whether it was present. */
    bool
    erase(Addr key)
    {
        std::size_t hole = slotOf(key);
        if (hole == kNoSlot)
            return false;
        // Backward-shift deletion: walk the rest of the probe chain and
        // move back every entry whose home slot does not lie strictly
        // between the hole and its current slot (cyclically), so every
        // remaining key stays reachable from its home without a gap.
        const std::size_t mask = _keys.size() - 1;
        for (std::size_t j = (hole + 1) & mask; _keys[j] != kAddrInvalid;
             j = (j + 1) & mask) {
            if (((j - home(_keys[j])) & mask) >= ((j - hole) & mask)) {
                _keys[hole] = _keys[j];
                _vals[hole] = std::move(_vals[j]);
                hole = j;
            }
        }
        _keys[hole] = kAddrInvalid;
        _vals[hole] = V{};
        --_used;
        return true;
    }

    /** Apply @p fn(key, value) to every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < _keys.size(); ++i) {
            if (_keys[i] != kAddrInvalid)
                fn(_keys[i], _vals[i]);
        }
    }

  private:
    static constexpr std::size_t kNoSlot = ~std::size_t{0};
    static constexpr std::size_t kMinSlots = 16;

    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
                (key * 0x9e3779b97f4a7c15ULL) >> _shift);
    }

    std::size_t
    slotOf(Addr key) const
    {
        // Also covers the never-allocated table.
        if (_used == 0)
            return kNoSlot;
        const std::size_t mask = _keys.size() - 1;
        const Addr *keys = _keys.data();
        std::size_t i = home(key);
        while (keys[i] != kAddrInvalid) {
            if (keys[i] == key)
                return i;
            i = (i + 1) & mask;
        }
        return kNoSlot;
    }

    /** Double the table (or allocate the first one) and rehash. */
    void
    grow()
    {
        std::vector<Addr> old_keys = std::move(_keys);
        std::vector<V> old_vals = std::move(_vals);
        const std::size_t slots =
                old_keys.empty() ? kMinSlots : old_keys.size() * 2;
        _keys.assign(slots, kAddrInvalid);
        _vals.clear();
        _vals.resize(slots);
        _shift = 64 - log2Exact(slots);
        const std::size_t mask = slots - 1;
        for (std::size_t s = 0; s < old_keys.size(); ++s) {
            if (old_keys[s] == kAddrInvalid)
                continue;
            std::size_t i = home(old_keys[s]);
            while (_keys[i] != kAddrInvalid)
                i = (i + 1) & mask;
            _keys[i] = old_keys[s];
            _vals[i] = std::move(old_vals[s]);
        }
    }

    /** Key lane: kAddrInvalid marks an empty slot. */
    std::vector<Addr> _keys;
    /** Value lane; an empty slot holds a default-constructed V. */
    std::vector<V> _vals;
    std::size_t _used = 0;
    unsigned _shift = 64; ///< 64 - log2(capacity)
};

/** A set of block addresses: a FlatMap whose values carry nothing. */
struct FlatSetMember
{
};
using FlatSet = FlatMap<FlatSetMember>;

} // namespace psim

#endif // PSIM_SIM_FLAT_MAP_HH
