/**
 * @file
 * The one experiment pipeline: build a machine, attach the observers
 * a run asks for, attach the workload, run to completion, verify the
 * numerical result, check the coherence invariants, collect the paper's
 * metrics and write the observers' files. psim_cli, run_spec (through
 * sim/spec.hh), the examples and the integration tests all run
 * workloads through runWorkload().
 */

#ifndef PSIM_APPS_DRIVER_HH
#define PSIM_APPS_DRIVER_HH

#include <memory>
#include <string>

#include "apps/workload.hh"
#include "sys/machine.hh"
#include "trace/trace.hh"

namespace psim::apps
{

struct Run
{
    /** The binary SLC trace, closed after the run; null when off. */
    std::unique_ptr<TraceWriter> trace;
    std::unique_ptr<Machine> machine;
    std::unique_ptr<Workload> workload;
    RunMetrics metrics;
    bool verified = false;
    bool finished = false;
};

/**
 * Command-line observability flags shared by run_spec, the examples
 * and psim_cli:
 *
 *   --stats-json PREFIX      JSON stats dump per run
 *   --sample-interval N      sampler period in ticks (with --stats-json
 *                            the series lands in the JSON document)
 *   --sample-csv PREFIX      sampler time series as CSV per run
 *   --chrome-trace PREFIX    chrome://tracing / Perfetto event file
 *   --chrome-window A:B      restrict chrome-trace recording to [A, B]
 *
 * All of it is read-only: enabling any of these never changes simulated
 * behaviour or aggregate statistics. PREFIX is a path prefix: a grid
 * runs many cells and each writes "<prefix><cell>.json" / ".csv" (see
 * RunOptions::cell); a single run leaves the cell empty and uses PREFIX
 * verbatim.
 */
struct ObservabilityOptions
{
    std::string statsJsonPrefix;
    std::string sampleCsvPrefix;
    std::string chromeTracePrefix;
    Tick sampleInterval = 0;     ///< 0: sampling off
    Tick chromeStart = 0;        ///< chrome-trace recording window
    Tick chromeEnd = kTickNever;

    /**
     * Try to consume argv[*i] (and its value). @return true when the
     * argument was one of the observability flags; *i is advanced past
     * any consumed value. Fatal on a missing or malformed value.
     */
    bool parseArg(int argc, char **argv, int *i);
};

struct RunOptions
{
    unsigned scale = 1;
    bool characterize = false;   ///< attach Table-2/3 characterizers
    Tick limit = kTickNever;     ///< simulated-time safety limit
    ObservabilityOptions obs;
    /**
     * Per-cell file stem: each observability file is written to
     * "<prefix><cell>.json" (".csv" for the sampler). Empty for a single
     * run, whose prefixes are the paths themselves.
     */
    std::string cell;
    /** Write the binary SLC reference trace here (empty: none). */
    std::string tracePath;
};

/**
 * Run @p workload_name on a machine configured by @p cfg. Verification
 * and the coherence-invariant check run only when the machine finished.
 */
Run runWorkload(const std::string &workload_name, const MachineConfig &cfg,
                const RunOptions &opts = {});

} // namespace psim::apps

#endif // PSIM_APPS_DRIVER_HH
