/**
 * @file
 * Interval sampler: a periodic, read-only snapshot of selected
 * statistics (read misses, prefetches issued/useful, write buffer
 * occupancies, network flits, ...) so the *phase behaviour* of a
 * workload becomes visible, not just its end-of-run aggregates.
 *
 * The machine drives the sampler on both engines the same way: it runs
 * the simulation up to a boundary and calls sampleAt(). A row stamped
 * T is the cut below tick T -- every event before T has fired and none
 * at or after it has. The serial engine stops its queue just below
 * each sample tick; the sharded engine takes the row at the first
 * window boundary at or after it, where no event lies between T and
 * the boundary. Neither engine reshapes its run for a sample, so a run
 * with sampling enabled produces byte-identical aggregate statistics to
 * one without (asserted by tests/test_stats_export.cc), and sharded
 * rows are byte-identical at every shard count.
 */

#ifndef PSIM_SIM_SAMPLER_HH
#define PSIM_SIM_SAMPLER_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace psim::stats
{

class Sampler
{
  public:
    /** @param interval ticks between snapshots (must be > 0) */
    explicit Sampler(Tick interval);

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Register a named probe; call before the first snapshot. */
    void addProbe(std::string name, std::function<double()> fn);

    /**
     * Record one row stamped with tick @p t. The machine calls this
     * once no event below @p t is pending and none at or above it has
     * fired.
     */
    void sampleAt(Tick t);

    Tick interval() const { return _interval; }
    const std::vector<std::string> &probeNames() const { return _names; }

    /** One row per snapshot: [tick, probe values...]. */
    struct Row
    {
        Tick tick;
        std::vector<double> values;
    };

    const std::vector<Row> &rows() const { return _rows; }

    /**
     * JSON fragment for the stats document's "samples" member:
     *   {"interval":N,"probes":[...],"rows":[[tick,v0,v1,...],...]}
     */
    void dumpJson(std::ostream &os) const;

    /** CSV time series: header "tick,probe0,..." then one row per sample. */
    void dumpCsv(std::ostream &os) const;

  private:
    Tick _interval;
    std::vector<std::string> _names;
    std::vector<std::function<double()>> _probes;
    std::vector<Row> _rows;
};

} // namespace psim::stats

#endif // PSIM_SIM_SAMPLER_HH
