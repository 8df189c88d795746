/**
 * @file
 * Layer replays: time single layers' public functions over a cell's
 * captured SLC request stream (Machine::enableTracing), one chunk at a
 * time, so each layer's cost per request is measured apart from the
 * rest of the machine.
 *
 *  - sim:  EventQueue::schedule + runOne, one event per request at its
 *          recorded tick;
 *  - mem:  CacheArray::find, plus findVictim and fill on a miss, with
 *          the cell's SLC geometry (one array per node);
 *  - core: Prefetcher::observeRead for the cell's scheme (one per
 *          node) on every read, with tagged hits on the blocks the
 *          replayed prefetcher brought in, and on every demand and
 *          prefetch fill when the scheme wantsBlockContent() (block
 *          content from the finished BackingStore). The calls are
 *          planned untimed beforehand (CorePlanner in replay.cc). No
 *          outcome feedback is replayed;
 *  - net:  Mesh::traverse, request to cfg.homeOf(addr) and data reply
 *          back, for every request that missed in the SLC and is homed
 *          on another node.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>

#include "mem/backing_store.hh"
#include "sim/config.hh"

namespace perfbench
{

/** Work counted and host seconds spent per replayed layer. */
struct ReplayTotals
{
    std::uint64_t records = 0;      ///< requests replayed (event + probe)
    std::uint64_t observations = 0; ///< observeRead calls (reads, fills)
    std::uint64_t candidates = 0;   ///< addresses the prefetcher proposed
    std::uint64_t taggedHits = 0;   ///< observations with taggedHit set
    std::uint64_t traversals = 0;   ///< Mesh::traverse calls
    double eventS = 0;
    double probeS = 0;
    double observeS = 0;
    double traverseS = 0;

    void add(const ReplayTotals &o);
};

/**
 * Replay the trace file at @p path (written by Machine::enableTracing
 * on a machine built from @p cfg) into @p totals. @p store is that
 * machine's backing store after the run.
 */
void replayTrace(const std::string &path, const psim::MachineConfig &cfg,
                 const psim::BackingStore &store, ReplayTotals &totals);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
