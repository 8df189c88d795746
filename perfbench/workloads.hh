/**
 * @file
 * The benchmark's workloads and the cell runner.
 *
 * A workload is a fixed list of cells run one after another, a closed
 * loop with one client: a cell starts when the previous one finished.
 * A cell is one unit of timed work: one application on one scheme, or
 * one generated fuzz program on all eight schemes. Every cell builds
 * fresh machines, so modelled caches start empty, as in the paper.
 * The runner puts a span around each of the benchmark's calls into the
 * simulator's public functions; spans inside the simulator are not
 * this benchmark's business.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "replay.hh"
#include "sim/config.hh"
#include "sim/json.hh"
#include "sys/machine.hh"

namespace perfbench
{

/** Host-time spans of one cell execution, in seconds. */
enum Span
{
    kWall,       ///< the whole cell
    kCpu,        ///< user + system time of the process over the cell
    kCtor,       ///< Machine construction
    kAttach,     ///< workload construction + Workload::attach
    kRun,        ///< Machine::run
    kVerify,     ///< Workload::verify
    kInvariants, ///< Machine::checkCoherenceInvariants
    kStats,      ///< metrics(), registry reads, digests
    kGenerate,   ///< check::ProgramSpec::generate
    kRunScheme,  ///< one fuzz program on one scheme, oracle included
    kOracle,     ///< check::Oracle snapshot + check
    kNumSpans,
};

inline constexpr const char *kSpanNames[kNumSpans] = {
    "wall_s",           "cpu_s",           "sys.machine_ctor_s",
    "apps.attach_s",    "sys.run_s",       "apps.verify_s",
    "sys.invariants_s", "sim.stats_s",     "check.generate_s",
    "check.run_scheme_s", "check.oracle_s",
};

using SpanTimes = std::array<double, kNumSpans>;

/** One timed unit of work. */
struct Cell
{
    std::string id;
    psim::MachineConfig cfg;
    std::string app;           ///< application cell: workload name
    unsigned scale = 1;
    bool fuzz = false;         ///< fuzz cell: program seed below
    std::uint64_t fuzzSeed = 0;
};

struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    /**
     * Golden results document (repo-relative) whose cells the runs must
     * reproduce exactly when their config matches; empty for none.
     */
    std::string golden;
    /**
     * Key of this workload's digests in pins.json: the benchmark seed,
     * or "any" when the inputs do not depend on it.
     */
    std::string pinKey;
};

/** The benchmark's workload names. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name with inputs derived from @p seed. */
Workload planWorkload(const std::string &name, std::uint64_t seed);

/** Registry counters summed over nodes, keyed "<group>.<scalar>". */
using Counts = std::map<std::string, double>;

/** What one simulated machine run produced. */
struct RunRecord
{
    std::string id;    ///< results-document cell id ("mp3d-i-det")
    std::string group; ///< runs sharing a group share a baseline run
    psim::PrefetchScheme scheme = psim::PrefetchScheme::None;
    psim::RunMetrics sim;
    psim::json::Value metrics; ///< the results-document metric set
    std::uint64_t digest = 0;  ///< over metrics (+ image, oracle: fuzz)
    Counts counts;
    bool ok = true;
    std::string why; ///< failure detail when !ok
};

/** Trace capture for the traced run (serial engine only). */
struct Capture
{
    std::string path;     ///< scratch trace file, removed after replay
    ReplayTotals replay;
    double replayWallS = 0; ///< host time spent replaying, not capturing
};

/**
 * Run @p cell and append one RunRecord per machine run to @p out.
 * With @p cap, every machine runs on the serial engine with its SLC
 * request stream captured and replayed layer by layer.
 */
SpanTimes runCell(const Cell &cell, std::vector<RunRecord> &out,
                  Capture *cap = nullptr);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
