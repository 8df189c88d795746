/**
 * @file
 * Unit tests for the open-addressed block-address table: a seeded
 * differential run against std::unordered_map, backward-shift erasure
 * on a probe chain that wraps past the end of the table, and erasure
 * on both sides of a growth.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/random.hh"

using namespace psim;

namespace
{

constexpr Addr kBlk = 32;

/** Home slot of @p key in a table of 2^@p bits slots (FlatMap's hash). */
std::size_t
homeSlot(Addr key, unsigned bits)
{
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                    (64 - bits));
}

/** The first @p n block addresses whose home slot is @p slot. */
std::vector<Addr>
keysHomedAt(std::size_t slot, unsigned bits, std::size_t n)
{
    std::vector<Addr> keys;
    for (Addr a = kBlk; keys.size() < n; a += kBlk) {
        if (homeSlot(a, bits) == slot)
            keys.push_back(a);
    }
    return keys;
}

/** Keys in slot order. */
template <typename V>
std::vector<Addr>
slotOrder(const FlatMap<V> &m)
{
    std::vector<Addr> keys;
    m.forEach([&keys](Addr k, const V &) { keys.push_back(k); });
    return keys;
}

/** @p m holds exactly @p ref. */
::testing::AssertionResult
sameContents(const FlatMap<std::uint64_t> &m,
             const std::unordered_map<Addr, std::uint64_t> &ref)
{
    if (m.size() != ref.size()) {
        return ::testing::AssertionFailure()
               << "size " << m.size() << " != " << ref.size();
    }
    for (const auto &[k, v] : ref) {
        const std::uint64_t *got = m.find(k);
        if (!got)
            return ::testing::AssertionFailure() << "lost key " << k;
        if (*got != v)
            return ::testing::AssertionFailure() << "wrong value at " << k;
    }
    std::size_t visited = 0;
    m.forEach([&](Addr k, const std::uint64_t &) {
        visited += ref.count(k);
    });
    if (visited != ref.size())
        return ::testing::AssertionFailure() << "forEach saw stray keys";
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(FlatMap, EmptyTableAllocatesNothing)
{
    FlatMap<int> m;
    EXPECT_EQ(m.capacity(), 0u);
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(kBlk), nullptr);
    EXPECT_FALSE(m.contains(kBlk));
    EXPECT_FALSE(m.erase(kBlk));
    EXPECT_EQ(m.capacity(), 0u) << "lookups must not allocate";

    m[kBlk] = 7;
    EXPECT_EQ(m.capacity(), 16u);
    ASSERT_NE(m.find(kBlk), nullptr);
    EXPECT_EQ(*m.find(kBlk), 7);
}

TEST(FlatMap, InsertReportsNewKeysOnly)
{
    FlatMap<int> m;
    auto [v, inserted] = m.insert(kBlk);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, 0) << "new values are default-constructed";
    *v = 3;
    auto [again, inserted2] = m.insert(kBlk);
    EXPECT_FALSE(inserted2);
    EXPECT_EQ(*again, 3);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, DifferentialAgainstUnorderedMap)
{
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        Rng rng(seed);
        FlatMap<std::uint64_t> flat;
        std::unordered_map<Addr, std::uint64_t> ref;
        for (unsigned op = 0; op < 60000; ++op) {
            // The key universe widens over the run, so the table grows
            // while erasures keep punching holes into its chains.
            Addr key = rng.below(64 + op / 40) * kBlk;
            std::uint64_t r = rng.below(10);
            if (r < 4) {
                std::uint64_t val = rng.next();
                flat[key] = val;
                ref[key] = val;
            } else if (r < 7) {
                const std::uint64_t *got = flat.find(key);
                auto it = ref.find(key);
                ASSERT_EQ(got != nullptr, it != ref.end())
                        << "seed " << seed << " op " << op;
                if (got) {
                    ASSERT_EQ(*got, it->second);
                }
            } else {
                ASSERT_EQ(flat.erase(key), ref.erase(key) == 1)
                        << "seed " << seed << " op " << op;
            }
            if (op % 997 == 0) {
                ASSERT_TRUE(sameContents(flat, ref)) << "seed " << seed;
            }
        }
        EXPECT_TRUE(sameContents(flat, ref)) << "seed " << seed;
        EXPECT_GT(flat.capacity(), 16u) << "the run must have grown";
    }
}

TEST(FlatMap, BackwardShiftAcrossTableEnd)
{
    // Five keys homed at the last slot of a 16-slot table wrap their
    // chain into slots 0..3; keys homed at slots 0 and 1 queue behind
    // them. Eight keys stay under the 0.7 load factor, so no growth.
    const std::vector<Addr> last = keysHomedAt(15, 4, 5);
    const std::vector<Addr> first = keysHomedAt(0, 4, 2);
    const std::vector<Addr> second = keysHomedAt(1, 4, 1);
    std::vector<Addr> chain = last;
    chain.insert(chain.end(), first.begin(), first.end());
    chain.insert(chain.end(), second.begin(), second.end());

    auto build = [&chain] {
        FlatMap<std::uint64_t> m;
        for (Addr k : chain)
            m[k] = k + 1;
        return m;
    };

    {
        FlatMap<std::uint64_t> m = build();
        ASSERT_EQ(m.capacity(), 16u);
        // Slot order proves the wrap: slot 0 holds the second key homed
        // at slot 15, and the first one sits alone at the end.
        std::vector<Addr> order = slotOrder(m);
        ASSERT_EQ(order.size(), chain.size());
        EXPECT_EQ(order.front(), last[1]);
        EXPECT_EQ(order.back(), last[0]);
    }

    // Erasing any one key keeps every other key reachable.
    for (Addr gone : chain) {
        FlatMap<std::uint64_t> m = build();
        std::unordered_map<Addr, std::uint64_t> ref;
        for (Addr k : chain)
            ref[k] = k + 1;
        ASSERT_TRUE(m.erase(gone));
        ref.erase(gone);
        EXPECT_EQ(m.find(gone), nullptr);
        EXPECT_TRUE(sameContents(m, ref)) << "after erasing " << gone;
        EXPECT_EQ(m.capacity(), 16u);
    }

    // Emptying the chain in seeded random orders, re-checking after
    // every erasure, then refilling it.
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        Rng rng(seed);
        std::vector<Addr> order = chain;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        FlatMap<std::uint64_t> m = build();
        std::unordered_map<Addr, std::uint64_t> ref;
        for (Addr k : chain)
            ref[k] = k + 1;
        for (Addr k : order) {
            ASSERT_TRUE(m.erase(k));
            ref.erase(k);
            ASSERT_TRUE(sameContents(m, ref)) << "seed " << seed;
        }
        EXPECT_TRUE(m.empty());
        for (Addr k : chain) {
            m[k] = k + 1;
            ref[k] = k + 1;
        }
        EXPECT_TRUE(sameContents(m, ref)) << "seed " << seed;
    }
}

TEST(FlatMap, EraseStraddlingGrowth)
{
    FlatMap<std::uint64_t> m;
    std::unordered_map<Addr, std::uint64_t> ref;
    auto put = [&](Addr k) {
        m[k] = k * 3;
        ref[k] = k * 3;
    };
    auto drop = [&](Addr k) {
        ASSERT_TRUE(m.erase(k));
        ref.erase(k);
    };

    // Fill to the 0.7 limit of 16 slots, punch holes, and refill past
    // it: the growth rehashes a table whose chains were shifted.
    for (Addr k = 1; k <= 11; ++k)
        put(k * kBlk);
    ASSERT_EQ(m.capacity(), 16u);
    for (Addr k : {2, 5, 9})
        drop(k * kBlk);
    for (Addr k = 12; k <= 20; ++k)
        put(k * kBlk);
    ASSERT_EQ(m.capacity(), 32u);
    EXPECT_TRUE(sameContents(m, ref));

    // Erase keys inserted before and after the growth, then bring some
    // back: they must come back default-initialised before assignment.
    for (Addr k : {1, 11, 12, 20, 7})
        drop(k * kBlk);
    EXPECT_TRUE(sameContents(m, ref));
    for (Addr k : {2, 11, 20}) {
        auto [v, inserted] = m.insert(k * kBlk);
        EXPECT_TRUE(inserted);
        EXPECT_EQ(*v, 0u);
        *v = k * kBlk * 3;
        ref[k * kBlk] = k * kBlk * 3;
    }
    EXPECT_TRUE(sameContents(m, ref));
}

TEST(FlatMap, MovesNonTrivialValues)
{
    // Growth and backward shifts move values; an erased slot is reset
    // so a re-inserted key starts empty.
    FlatMap<std::vector<int>> m;
    for (Addr k = 1; k <= 100; ++k)
        m[k * kBlk].assign(static_cast<std::size_t>(k), static_cast<int>(k));
    for (Addr k = 1; k <= 100; k += 3)
        ASSERT_TRUE(m.erase(k * kBlk));
    for (Addr k = 1; k <= 100; ++k) {
        const std::vector<int> *v = m.find(k * kBlk);
        if ((k - 1) % 3 == 0) {
            EXPECT_EQ(v, nullptr);
        } else {
            ASSERT_NE(v, nullptr);
            EXPECT_EQ(v->size(), k);
            EXPECT_TRUE(std::all_of(v->begin(), v->end(), [k](int x) {
                return x == static_cast<int>(k);
            }));
        }
    }
    EXPECT_TRUE(m[kBlk].empty());
}

TEST(FlatSet, InsertContainsErase)
{
    FlatSet s;
    EXPECT_FALSE(s.contains(kBlk));
    EXPECT_TRUE(s.insert(kBlk).second);
    EXPECT_FALSE(s.insert(kBlk).second);
    EXPECT_TRUE(s.contains(kBlk));
    EXPECT_EQ(s.size(), 1u);
    EXPECT_TRUE(s.erase(kBlk));
    EXPECT_FALSE(s.erase(kBlk));
    EXPECT_FALSE(s.contains(kBlk));
}
