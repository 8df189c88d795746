/**
 * @file
 * Per-node staging lanes: the one place where records produced on
 * concurrent shard threads regain a single, shard-count-invariant order.
 *
 * Every record a node produces during a run -- a chrome-trace op, a
 * committed access, an issued prefetch, a binary-trace record, a
 * cross-node message -- carries its tick and its producing node. On the
 * serial engine a Lanes set forwards each record straight to its
 * consumer in execution order. On the sharded engine each node appends
 * to its own cache-line-padded lane (a shard thread writes only its own
 * nodes' lanes), and the machine drains every set single-threaded at
 * each window boundary: records reach the consumer in canonical (tick,
 * node, per-node append index) order. Appends within one node follow
 * that node's deterministic event order, and at equal ticks the sharded
 * tie-break fires events node-major, so the merge reproduces the order
 * a --shards 1 run produces them in, at every shard count.
 */

#ifndef PSIM_SIM_LANES_HH
#define PSIM_SIM_LANES_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace psim
{

/** Rec needs a `tick` (Tick) and a `node` (NodeId) member. */
template <typename Rec>
class Lanes
{
  public:
    using Consumer = std::function<void(const Rec &)>;

    /** Detached: emit() must not be called; drain() does nothing. */
    Lanes() = default;

    /**
     * Feed @p consume. With @p staged_nodes > 0 (the sharded engine)
     * records wait in per-node lanes until drain() instead.
     */
    Lanes(Consumer consume, unsigned staged_nodes)
        : _consume(std::move(consume)), _lanes(staged_nodes)
    {
    }

    /** Is a consumer attached? */
    explicit operator bool() const { return static_cast<bool>(_consume); }

    /** Serial: consume @p rec now. Sharded: append to its node's lane. */
    void
    emit(const Rec &rec)
    {
        if (_lanes.empty())
            _consume(rec);
        else
            _lanes[rec.node].recs.push_back(rec);
    }

    /**
     * Hand every staged record -- each must carry a tick below
     * @p window_end -- to the consumer in (tick, node, append index)
     * order, then clear the lanes. Single-threaded, between windows.
     */
    void
    drain(Tick window_end)
    {
        _order.clear();
        for (std::uint32_t n = 0; n < _lanes.size(); ++n) {
            const std::vector<Rec> &recs = _lanes[n].recs;
            for (std::uint32_t i = 0; i < recs.size(); ++i) {
                psim_assert(recs[i].tick < window_end,
                        "record staged at tick %llu beyond its window "
                        "end %llu", (unsigned long long)recs[i].tick,
                        (unsigned long long)window_end);
                _order.push_back(Ref{recs[i].tick, n, i});
            }
        }
        std::sort(_order.begin(), _order.end(),
                [](const Ref &a, const Ref &b) {
                    if (a.tick != b.tick)
                        return a.tick < b.tick;
                    if (a.node != b.node)
                        return a.node < b.node;
                    return a.idx < b.idx;
                });
        for (const Ref &r : _order)
            _consume(_lanes[r.node].recs[r.idx]);
        for (Lane &lane : _lanes)
            lane.recs.clear();
    }

  private:
    /** One node's lane, padded so shards never share a cache line. */
    struct alignas(64) Lane
    {
        std::vector<Rec> recs;
    };

    /** Merge key of one staged record. */
    struct Ref
    {
        Tick tick;
        std::uint32_t node;
        std::uint32_t idx;
    };

    Consumer _consume;
    std::vector<Lane> _lanes; ///< empty on the serial engine
    std::vector<Ref> _order;  ///< drain scratch, reused every window
};

} // namespace psim

#endif // PSIM_SIM_LANES_HH
