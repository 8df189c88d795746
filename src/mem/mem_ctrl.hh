/**
 * @file
 * Home memory controller: DRAM timing, full-map directory, and the
 * memory-side lock/barrier controllers.
 *
 * The directory implements a Censier/Feautrier-style write-invalidate
 * protocol: a presence bit per node for clean blocks, an owner for
 * dirty blocks, invalidation acknowledgements collected at the home,
 * and ownership transfers serialized by blocking the directory entry
 * (subsequent requests for a busy block queue at the home and are
 * replayed in order).
 */

#ifndef PSIM_MEM_MEM_CTRL_HH
#define PSIM_MEM_MEM_CTRL_HH

#include <cstdint>
#include <vector>

#include "proto/lock_ctrl.hh"
#include "proto/message.hh"
#include "sim/flat_map.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"

namespace psim
{

class Machine;
class EventQueue;

class MemCtrl
{
  public:
    MemCtrl(Machine &m, NodeId id);

    /** A message delivered over the local bus. */
    void receive(const Message &m);

    /** Directory state of a block (tests / invariant checks). */
    struct DirSnapshot
    {
        enum class St : std::uint8_t { Uncached, Clean, Dirty } st =
                St::Uncached;
        std::uint64_t presence = 0;
        NodeId owner = kNodeNone;
        bool busy = false;
    };

    DirSnapshot snapshot(Addr blk_addr) const;

    /** Is the block currently classified migratory (tests)? */
    bool isMigratory(Addr blk_addr) const;

    LockCtrl &locks() { return _locks; }
    const LockCtrl &locks() const { return _locks; }
    BarrierCtrl &barrier() { return _barrier; }
    const BarrierCtrl &barrier() const { return _barrier; }

    stats::Scalar readReqs;
    stats::Scalar readExReqs;
    stats::Scalar upgradeReqs;
    stats::Scalar convertedUpgrades; ///< upgrades handled as ReadEx
    stats::Scalar fetchesSent;
    stats::Scalar invalidationsSent;
    stats::Scalar writebacksRecv;
    stats::Scalar queuedAtBusyEntry;
    stats::Scalar migratoryDetected;   ///< blocks classified migratory
    stats::Scalar migratoryGrants;     ///< reads served exclusively
    stats::Scalar migratoryDemotions;  ///< read-only handoffs demoted

    /**
     * Register this controller's statistics (including the memory-side
     * lock and barrier controllers it owns) into @p g.
     */
    void
    registerStats(stats::Group &g)
    {
        g.addScalar("readReqs", &readReqs, "read requests");
        g.addScalar("readExReqs", &readExReqs, "read-exclusive requests");
        g.addScalar("upgradeReqs", &upgradeReqs, "upgrade requests");
        g.addScalar("convertedUpgrades", &convertedUpgrades,
                "upgrades serviced as read-exclusive");
        g.addScalar("fetchesSent", &fetchesSent, "owner fetches sent");
        g.addScalar("invalidationsSent", &invalidationsSent,
                "invalidations sent");
        g.addScalar("writebacksRecv", &writebacksRecv,
                "writebacks received");
        g.addScalar("queuedAtBusyEntry", &queuedAtBusyEntry,
                "requests queued at busy directory entries");
        g.addScalar("migratoryDetected", &migratoryDetected,
                "blocks classified migratory");
        g.addScalar("migratoryGrants", &migratoryGrants,
                "reads granted exclusive copies");
        g.addScalar("migratoryDemotions", &migratoryDemotions,
                "read-only handoffs demoted");
        _locks.registerStats(g);
        _barrier.registerStats(g);
    }

  private:
    /**
     * Requests queued at a busy directory entry, replayed in arrival
     * order. A ring over a vector: it allocates nothing until the first
     * request queues (most entries never see one) and then reuses its
     * buffer.
     */
    class WaitQueue
    {
      public:
        bool empty() const { return _count == 0; }

        void
        push(const Message &m)
        {
            if (_count == _ring.size()) {
                // Full (or never allocated): move into a buffer twice
                // the size, oldest request first.
                std::vector<Message> bigger(_ring.empty() ? 2
                                                          : _ring.size() * 2);
                for (std::size_t k = 0; k < _count; ++k)
                    bigger[k] = _ring[(_head + k) % _ring.size()];
                _ring = std::move(bigger);
                _head = 0;
            }
            _ring[(_head + _count) % _ring.size()] = m;
            ++_count;
        }

        Message
        pop()
        {
            Message m = _ring[_head];
            _head = (_head + 1) % _ring.size();
            --_count;
            return m;
        }

      private:
        std::vector<Message> _ring;
        std::size_t _head = 0;
        std::size_t _count = 0;
    };

    struct DirEntry
    {
        enum class St : std::uint8_t { Uncached, Clean, Dirty };

        St st = St::Uncached;
        std::uint64_t presence = 0; ///< sharer bitmask (Clean)
        NodeId owner = kNodeNone;   ///< owner (Dirty)

        bool busy = false;
        bool replayPending = false;   ///< a queued request is being replayed
        NodeId fetchFrom = kNodeNone; ///< owner a fetch is pending from

        // Migratory-sharing detection (cfg.migratoryOpt).
        NodeId lastWriter = kNodeNone;
        bool migratory = false;
        std::uint8_t migEvidence = 0; ///< consecutive writer migrations
        std::uint8_t migWasted = 0;   ///< exclusive grants never written
        unsigned pendingAcks = 0;
        Message pending;              ///< the request being serviced
        WaitQueue waiting;            ///< queued while busy
    };

    /** Claim the memory bank, then run the directory operation. */
    void process(const Message &m);

    /**
     * Audit cross-check: directory-entry state must be internally
     * consistent before every operation on it (Dirty entries have an
     * owner and no presence bits, Clean entries the reverse, busy
     * entries an outstanding fetch or invalidation round).
     */
    void auditCheckEntry(const DirEntry &ent, const Message &m) const;

    void handleCoherent(const Message &m);
    void startOp(DirEntry &ent, const Message &m);
    void startReadEx(DirEntry &ent, const Message &m, bool as_upgrade);

    /** Data arrived home (FetchReply or a racing WritebackReq). */
    void ownerDataArrived(DirEntry &ent, Addr addr, bool owner_kept_copy,
                          bool owner_wrote);

    /** Bookkeeping when a node gains exclusive ownership. */
    void grantedExclusive(DirEntry &ent, NodeId req);

    /** All invalidation acks collected. */
    void acksComplete(DirEntry &ent, Addr addr);

    /** Replay the next queued request, if any. */
    void unblock(DirEntry &ent, Addr addr);

    /** Send @p t to @p dst after @p extra ticks (DRAM latency etc.). */
    void reply(MsgType t, NodeId dst, Addr addr, Tick extra);

    void sendFetch(MsgType t, NodeId owner, Addr addr, NodeId requester);

    static std::uint64_t bit(NodeId n) { return 1ULL << n; }

    Machine &_m;
    /** This node's event queue (per-shard in sharded mode). */
    EventQueue &_eq;
    NodeId _id;
    audit::MachineAudit *_audit = nullptr; ///< null when auditing is off
    Resource _bank;
    LockCtrl _locks;
    BarrierCtrl _barrier;
    /**
     * Full-map directory, one entry per block this node is home to that
     * was ever requested. Probed by every coherence message, so it is a
     * flat open-addressed table; entries are never erased, and a
     * DirEntry reference is held only within one handler, across no
     * other insertion.
     */
    FlatMap<DirEntry> _dir;
};

} // namespace psim

#endif // PSIM_MEM_MEM_CTRL_HH
