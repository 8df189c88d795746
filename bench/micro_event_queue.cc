/**
 * @file
 * Microbenchmarks (google-benchmark) of the event engine: schedule
 * and drain throughput for the workloads the machine generates
 * (short-delay schedules dominating, occasional long delays).
 *
 * `LegacyEventQueue` is a faithful copy of the seed engine
 * (std::function callbacks in a priority_queue, lazy-cancel list with
 * an O(n) scan per pop) so a single run quantifies the speedup of the
 * pooled/time-wheel engine; the `BM_Legacy*` numbers are the baseline
 * the acceptance criterion compares against.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <queue>

#include "sim/event_queue.hh"

using namespace psim;

namespace
{

/** The seed event engine, verbatim, for baseline measurements. */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;
    using EventId = std::uint64_t;

    Tick now() const { return _now; }

    EventId
    schedule(Tick when, Callback cb)
    {
        EventId id = _nextId++;
        _heap.push(Entry{when, id, std::move(cb)});
        ++_live;
        return id;
    }

    EventId
    scheduleIn(Tick delta, Callback cb)
    {
        return schedule(_now + delta, std::move(cb));
    }

    void cancel(EventId id) { _cancelled.push_back(id); }

    bool empty() const { return _live == 0; }

    bool
    runOne()
    {
        while (!_heap.empty()) {
            Entry e = _heap.top();
            _heap.pop();
            --_live;
            if (isCancelled(e.id))
                continue;
            _now = e.when;
            e.cb();
            return true;
        }
        return false;
    }

    void
    run()
    {
        while (!_heap.empty())
            runOne();
    }

  private:
    struct Entry
    {
        Tick when;
        EventId id;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.id > b.id;
        }
    };

    bool
    isCancelled(EventId id)
    {
        auto it = std::find(_cancelled.begin(), _cancelled.end(), id);
        if (it == _cancelled.end())
            return false;
        _cancelled.erase(it);
        return true;
    }

    Tick _now = 0;
    EventId _nextId = 1;
    std::size_t _live = 0;
    std::priority_queue<Entry, std::vector<Entry>, Later> _heap;
    std::vector<EventId> _cancelled;
};

constexpr std::size_t kBatch = 8192;

/** Schedule a batch of short-delay events and drain it. */
template <typename Queue>
void
pureSchedule(benchmark::State &state)
{
    Queue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kBatch; ++i)
            eq.scheduleIn(1 + (i % 97), [&fired] { ++fired; });
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatch));
}

/** Steady-state ping: every fired event schedules its successor. */
template <typename Queue>
void
wheelHit(benchmark::State &state)
{
    Queue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        // All delays below the wheel horizon (256): the common case on
        // the machine's cache/bus/mesh paths.
        for (std::size_t i = 0; i < kBatch; ++i)
            eq.scheduleIn(1 + (i % 250), [&fired] { ++fired; });
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatch));
}

/** Long delays only: exercises the overflow heap path. */
template <typename Queue>
void
farSchedule(benchmark::State &state)
{
    Queue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kBatch; ++i)
            eq.scheduleIn(300 + 13 * (i % 251), [&fired] { ++fired; });
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatch));
}

void BM_PureSchedule(benchmark::State &s) { pureSchedule<EventQueue>(s); }
void BM_LegacyPureSchedule(benchmark::State &s)
{
    pureSchedule<LegacyEventQueue>(s);
}

void BM_WheelHit(benchmark::State &s) { wheelHit<EventQueue>(s); }
void BM_FarSchedule(benchmark::State &s) { farSchedule<EventQueue>(s); }
void BM_LegacyFarSchedule(benchmark::State &s)
{
    farSchedule<LegacyEventQueue>(s);
}

BENCHMARK(BM_PureSchedule);
BENCHMARK(BM_LegacyPureSchedule);
BENCHMARK(BM_WheelHit);
BENCHMARK(BM_FarSchedule);
BENCHMARK(BM_LegacyFarSchedule);

} // namespace

BENCHMARK_MAIN();
