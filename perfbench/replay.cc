#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "core/prefetcher.hh"
#include "mem/cache_array.hh"
#include "net/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace perfbench
{

using namespace psim;

void
ReplayTotals::add(const ReplayTotals &o)
{
    records += o.records;
    observations += o.observations;
    candidates += o.candidates;
    taggedHits += o.taggedHits;
    traversals += o.traversals;
    eventS += o.eventS;
    probeS += o.probeS;
    observeS += o.observeS;
    traverseS += o.traverseS;
}

namespace
{

/** Records per timed chunk: large enough that two clock reads vanish. */
constexpr std::size_t kChunk = 1 << 16;

template <typename Fn>
double
timed(Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
}


/** One planned Prefetcher::observeRead call of the core replay. */
struct PlannedObs
{
    NodeId node;
    ReadObservation obs;
    std::size_t content; ///< offset of the block in the chunk's content
};

constexpr std::size_t kNoContent = ~std::size_t{0};

/**
 * Plans the core replay's observations, untimed, from a second set of
 * prefetchers: the SLC's prefetch tag and fill observations are
 * rebuilt with a shadow copy of each node's SLC, so the timed
 * prefetchers see the calls the machine made. A demand hit on a block
 * this replay prefetched and no demand touched yet is a tagged hit.
 * Candidates are filtered as Slc::maybePrefetch does (trigger block,
 * page crossing, already cached); SLWB slots and in-flight timing are
 * not modelled, so prefetch fills are observed right after their
 * trigger. Content-directed schemes also observe every demand fill and
 * prefetch fill, with the block's final content.
 */
class CorePlanner
{
  public:
    CorePlanner(const MachineConfig &cfg, const BackingStore &store)
        : _cfg(cfg), _store(store)
    {
        for (unsigned n = 0; n < cfg.numProcs; ++n) {
            _pfs.push_back(Prefetcher::create(cfg));
            _shadow.emplace_back(cfg.slcSize, cfg.slcAssoc, cfg.blockSize);
        }
        _content = _pfs.front()->wantsBlockContent();
    }

    /** Append the observations of @p chunk to @p out; returns candidates. */
    std::uint64_t
    plan(const std::vector<TraceRecord> &chunk, std::vector<PlannedObs> &out,
         std::vector<std::uint8_t> &blocks)
    {
        std::uint64_t candidates = 0;
        for (const TraceRecord &r : chunk) {
            CacheArray &c = _shadow[r.node];
            const Addr blk = _cfg.blockAddr(r.addr);
            CacheBlk *b = c.find(blk);
            bool tagged = false;
            if (b) {
                tagged = r.kind == TraceRecord::Kind::Read && r.hit &&
                         b->prefetched;
                b->prefetched = false;
            } else {
                install(c, blk, r.tick);
            }
            if (r.kind != TraceRecord::Kind::Read)
                continue;
            ReadObservation o;
            o.pc = r.pc;
            o.addr = r.addr;
            o.hit = r.hit;
            o.taggedHit = tagged;
            candidates += observe(r, o, r.hit, out, blocks);
            if (_content && !r.hit) {
                ReadObservation f;
                f.pc = r.pc;
                f.addr = r.addr;
                f.fill = true;
                candidates += observe(r, f, true, out, blocks);
            }
        }
        return candidates;
    }

  private:
    CacheBlk *
    install(CacheArray &c, Addr blk, Tick now)
    {
        CacheBlk *frame = c.findVictim(blk);
        c.fill(frame, blk, CohState::Shared, now);
        return frame;
    }

    /**
     * Plan @p o on the trigger's node, then prefetch its candidates into
     * the shadow SLC, observing each prefetch fill in turn. A candidate
     * never leaves its trigger's page, so a chain of fills ends within
     * the read's page.
     */
    std::uint64_t
    observe(const TraceRecord &r, const ReadObservation &o, bool content,
            std::vector<PlannedObs> &out, std::vector<std::uint8_t> &blocks)
    {
        std::uint64_t candidates = 0;
        std::vector<ReadObservation> work{o};
        for (std::size_t i = 0; i < work.size(); ++i) {
            PlannedObs p{r.node, work[i], kNoContent};
            if (_content && (content || i > 0)) {
                p.content = blocks.size();
                blocks.resize(blocks.size() + _cfg.blockSize);
                _store.read(_cfg.blockAddr(p.obs.addr), &blocks[p.content],
                            _cfg.blockSize);
            }
            out.push_back(p);
            ReadObservation call = p.obs;
            if (p.content != kNoContent) {
                call.content = &blocks[p.content];
                call.contentLen = _cfg.blockSize;
            }
            _cands.clear();
            _pfs[r.node]->observeRead(call, _cands);
            candidates += _cands.size();
            const Addr trigger = _cfg.blockAddr(p.obs.addr);
            for (Addr cand : _cands) {
                const Addr blk = _cfg.blockAddr(cand);
                CacheArray &c = _shadow[r.node];
                if (blk == trigger ||
                    _cfg.pageAddr(cand) != _cfg.pageAddr(p.obs.addr) ||
                    c.find(blk))
                    continue;
                install(c, blk, r.tick)->prefetched = true;
                if (_content) {
                    ReadObservation f;
                    f.pc = p.obs.pc;
                    f.addr = blk;
                    f.fill = true;
                    f.prefetchFill = true;
                    work.push_back(f);
                }
            }
        }
        return candidates;
    }

    const MachineConfig &_cfg;
    const BackingStore &_store;
    std::vector<std::unique_ptr<Prefetcher>> _pfs;
    std::vector<CacheArray> _shadow;
    std::vector<Addr> _cands;
    bool _content = false;
};

} // namespace

void
replayTrace(const std::string &path, const MachineConfig &cfg,
            const BackingStore &store, ReplayTotals &totals)
{
    const unsigned nodes = cfg.numProcs;
    const unsigned bs = cfg.blockSize;

    EventQueue eq;
    std::uint64_t fired = 0;

    std::vector<CacheArray> caches;
    caches.reserve(nodes);
    for (unsigned n = 0; n < nodes; ++n)
        caches.emplace_back(cfg.slcSize, cfg.slcAssoc, bs);

    std::vector<std::unique_ptr<Prefetcher>> pfs;
    for (unsigned n = 0; n < nodes; ++n)
        pfs.push_back(Prefetcher::create(cfg));
    CorePlanner planner(cfg, store);
    std::vector<PlannedObs> planned;
    std::uint64_t planned_candidates = 0;
    std::vector<Addr> cands;

    EventQueue mesh_eq;
    Mesh mesh(mesh_eq, cfg);
    const unsigned req_flits = cfg.flitsFor(0);
    const unsigned data_flits = cfg.flitsFor(bs);

    TraceReader reader(path);
    std::vector<TraceRecord> chunk;
    std::vector<std::uint8_t> blocks;
    chunk.reserve(kChunk);
    ReplayTotals t;
    for (;;) {
        chunk.clear();
        TraceRecord rec;
        while (chunk.size() < kChunk && reader.next(rec))
            chunk.push_back(rec);
        if (chunk.empty())
            break;
        t.records += chunk.size();
        planned.clear();
        blocks.clear();
        planned_candidates += planner.plan(chunk, planned, blocks);
        for (PlannedObs &p : planned) {
            t.taggedHits += p.obs.taggedHit;
            if (p.content != kNoContent) {
                p.obs.content = &blocks[p.content];
                p.obs.contentLen = bs;
            }
        }

        t.eventS += timed([&] {
            for (const TraceRecord &r : chunk) {
                eq.schedule(std::max(r.tick, eq.now()),
                            [&fired] { ++fired; });
                eq.runOne();
            }
        });

        t.probeS += timed([&] {
            for (const TraceRecord &r : chunk) {
                CacheArray &c = caches[r.node];
                Addr blk = cfg.blockAddr(r.addr);
                if (CacheBlk *b = c.find(blk)) {
                    c.touch(b, r.tick);
                    continue;
                }
                c.fill(c.findVictim(blk), blk,
                       r.kind == TraceRecord::Kind::Write
                               ? CohState::Modified
                               : CohState::Shared,
                       r.tick);
            }
        });

        t.observeS += timed([&] {
            for (const PlannedObs &p : planned) {
                pfs[p.node]->observeRead(p.obs, cands);
                t.candidates += cands.size();
                cands.clear();
            }
        });
        t.observations += planned.size();

        t.traverseS += timed([&] {
            for (const TraceRecord &r : chunk) {
                NodeId home = cfg.homeOf(r.addr);
                if (r.hit || home == r.node)
                    continue;
                Tick at = mesh.traverse(r.node, home, req_flits, r.tick);
                mesh.traverse(home, r.node, data_flits, at);
                t.traversals += 2;
            }
        });
    }
    psim_assert(fired == t.records, "event replay lost events");
    psim_assert(t.candidates == planned_candidates,
                "core replay diverged from its plan");
    totals.add(t);
}

} // namespace perfbench
