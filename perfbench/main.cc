/**
 * @file
 * perfbench: the repository's benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--root DIR] [--scratch DIR] [--emit-pins]
 *
 * Runs the workload's cells round-robin until --seconds have passed
 * (at least once each), checks every run, and prints every metric by
 * name and unit, then one JSON summary as the last line of stdout.
 * Host times are sums over cells of each cell's slowest repetition;
 * set-up time sums each cell's median set-up. --trace 1 adds the
 * per-layer metrics: span sums, registry counts and the layer replays
 * of replay.hh, for which every cell runs once more with its SLC
 * request stream captured. The exit status is 1 when any check failed.
 *
 * Checks, per machine run: it finished; the workload verified its
 * result (fuzz: the SC oracle and audit ledger accepted it, and its
 * memory image equals the baseline run's); the coherence invariants
 * hold; every repetition reproduced the first one's statistics; runs
 * whose config matches a golden results document (--root) reproduce
 * its cell exactly; and cells with a digest pinned in pins.json for
 * this seed, or for any seed, reproduce it (--emit-pins prints those
 * digests instead).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arith.hh"
#include "sim/json.hh"
#include "workloads.hh"

using namespace perfbench;
using psim::PrefetchScheme;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string root = ".";
    std::string scratch = ".bench_build/tmp";
    bool emitPins = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
            "usage: %s --workload NAME [--seed N] [--seconds S]\n"
            "          [--trace 0|1] [--root DIR] [--scratch DIR]"
            " [--emit-pins]\n",
            argv0);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto number = [&](const std::string &v) {
            char *end = nullptr;
            double d = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(d >= 0))
                usage(argv[0]);
            return d;
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end || v[0] == '-')
                usage(argv[0]);
        }
        else if (arg == "--seconds")
            a.seconds = number(value());
        else if (arg == "--trace")
            a.trace = number(value()) != 0;
        else if (arg == "--root")
            a.root = value();
        else if (arg == "--scratch")
            a.scratch = value();
        else if (arg == "--emit-pins")
            a.emitPins = true;
        else
            usage(argv[0]);
    }
    if (a.workload.empty())
        usage(argv[0]);
    return a;
}

double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
            .count();
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Everything one workload reports. */
struct Outcome
{
    std::string name;
    std::vector<Metric> endToEnd; ///< the BENCHMARK.json end_to_end set
    std::vector<Metric> extra;    ///< printed only: not on every workload
    std::vector<Metric> layers;   ///< --trace 1
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::string checks; ///< one-line summary of what was checked
};

/** Per-cell repetitions and the runs of the first one. */
struct Measured
{
    std::vector<std::vector<SpanTimes>> samples; ///< [cell][repetition]
    std::vector<RunRecord> runs;                 ///< first repetition
    std::vector<std::size_t> firstRun;           ///< [cell] -> runs index
};

void
fail(RunRecord &r, const std::string &why)
{
    if (r.ok) {
        r.ok = false;
        r.why = why;
    }
}

std::uint64_t
cellDigest(const Measured &m, std::size_t cell)
{
    std::uint64_t h = kFnvOffset;
    for (std::size_t k = m.firstRun[cell]; k < m.firstRun[cell + 1]; ++k)
        h = fnv1a(&m.runs[k].digest, sizeof m.runs[k].digest, h);
    return h;
}

Measured
measure(const Workload &w, double seconds, bool once)
{
    Measured m;
    m.samples.resize(w.cells.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        m.firstRun.push_back(m.runs.size());
        m.samples[i].push_back(runCell(w.cells[i], m.runs));
    }
    m.firstRun.push_back(m.runs.size());
    if (once)
        return m;
    for (;;) {
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            if (since(t0) + m.samples[i].back()[kWall] > seconds)
                return m;
            std::vector<RunRecord> again;
            m.samples[i].push_back(runCell(w.cells[i], again));
            for (std::size_t k = 0; k < again.size(); ++k) {
                RunRecord &first = m.runs[m.firstRun[i] + k];
                if (!again[k].ok)
                    fail(first, "repetition failed: " + again[k].why);
                else if (again[k].digest != first.digest)
                    fail(first, "repetition did not reproduce the first "
                                "run's statistics");
            }
        }
    }
}

/** Check the first repetition against goldens and pins. */
std::string
checkPinned(const Workload &w, const Args &args, Measured &m)
{
    unsigned golden_checked = 0, pin_checked = 0;
    if (!w.golden.empty() && args.seed == psim::MachineConfig{}.seed) {
        const std::string path = args.root + "/" + w.golden;
        psim::json::Value doc = psim::json::loadFile(path);
        std::map<std::string, std::string> want;
        for (const psim::json::Value &c : doc.find("cells")->asArray(path))
            want[c.find("id")->asString(path)] =
                    psim::json::serialize(*c.find("metrics"));
        for (RunRecord &r : m.runs) {
            auto it = want.find(r.id);
            if (it == want.end())
                continue;
            ++golden_checked;
            if (psim::json::serialize(r.metrics) != it->second)
                fail(r, "does not reproduce " + w.golden);
        }
    }
    const std::string pins_path = args.root + "/perfbench/pins.json";
    if (!args.emitPins && std::filesystem::exists(pins_path)) {
        // Cells whose digest is the same at every pinned seed are
        // pinned under "any" and checked at every seed.
        psim::json::Value pins = psim::json::loadFile(pins_path);
        const psim::json::Value *wl = pins.find(w.name);
        const psim::json::Value *seeded = wl ? wl->find(w.pinKey) : nullptr;
        const psim::json::Value *any = wl ? wl->find("any") : nullptr;
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            const psim::json::Value *pin =
                    seeded ? seeded->find(w.cells[i].id) : nullptr;
            if (!pin && any)
                pin = any->find(w.cells[i].id);
            if (!pin)
                continue;
            ++pin_checked;
            if (pin->asString(pins_path) != digestHex(cellDigest(m, i))) {
                for (std::size_t k = m.firstRun[i]; k < m.firstRun[i + 1];
                     ++k)
                    fail(m.runs[k], "does not reproduce its digest pinned "
                                    "in pins.json");
            }
        }
    }
    std::string checked = std::to_string(golden_checked) +
                          " runs against goldens, " +
                          std::to_string(pin_checked) + " of " +
                          std::to_string(w.cells.size()) +
                          " cells against pins";
    if (!args.emitPins && pin_checked < w.cells.size())
        std::fprintf(stderr,
                     "perfbench: warning: %s has no digests pinned at seed "
                     "%llu for %zu of its cells; those are checked only "
                     "for repeatability\n",
                     w.name.c_str(),
                     static_cast<unsigned long long>(args.seed),
                     w.cells.size() - pin_checked);
    return checked;
}

/**
 * Sum over cells of one estimate per cell, over its repetitions, of
 * the spans @p spans added together.
 */
double
sumOverCells(const Measured &m, std::initializer_list<Span> spans,
             double (*estimate)(std::vector<double>))
{
    double total = 0;
    for (const std::vector<SpanTimes> &cell : m.samples) {
        std::vector<double> v;
        for (const SpanTimes &t : cell) {
            double x = 0;
            for (Span s : spans)
                x += t[s];
            v.push_back(x);
        }
        total += estimate(std::move(v));
    }
    return total;
}

const char *
fig6Key(PrefetchScheme s)
{
    switch (s) {
    case PrefetchScheme::IDet:
        return "idet";
    case PrefetchScheme::DDet:
        return "ddet";
    case PrefetchScheme::Sequential:
        return "seq";
    default:
        return nullptr;
    }
}

/**
 * Peak resident set of this process, in MiB. run.py runs every workload
 * in a process of its own, so this is the workload's peak. VmHWM, not
 * ru_maxrss: the latter also counts the parent that spawned us.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
share(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

void
addLayerCounts(const std::vector<RunRecord> &runs, Outcome &o)
{
    Counts c;
    for (const RunRecord &r : runs)
        for (const auto &[k, v] : r.counts)
            c[k] += v;
    const double useful = c["slc.pfUsefulTagged"] + c["slc.pfUsefulLate"];
    const double drops = c["slc.pfDropInCache"] + c["slc.pfDropPending"] +
                         c["slc.pfDropPageCross"] + c["slc.pfDropNoSlot"];
    const double dir = c["mem.readReqs"] + c["mem.readExReqs"] +
                       c["mem.upgradeReqs"];
    auto &l = o.layers;
    l.push_back({"sys.cpu.loads", c["cpu.loads"], "count"});
    l.push_back({"sys.cpu.stores", c["cpu.stores"], "count"});
    l.push_back({"sys.cpu.read_stall_ticks", c["cpu.readStall"], "ticks"});
    l.push_back({"sys.cpu.write_stall_ticks", c["cpu.writeStall"], "ticks"});
    l.push_back({"sys.cpu.lock_stall_ticks", c["cpu.lockStall"], "ticks"});
    l.push_back({"sys.cpu.barrier_stall_ticks", c["cpu.barrierStall"],
                 "ticks"});
    l.push_back({"mem.flc.hit_frac",
                 1 - share(c["flc.readMisses"], c["flc.reads"]), "frac"});
    l.push_back({"mem.flwb.pushes", c["flwb.pushes"], "count"});
    l.push_back({"mem.flwb.retry_frac",
                 share(c["flwb.retries"], c["flwb.pushes"]), "frac"});
    l.push_back({"mem.bus.busy_ticks", c["bus.busyTicks"], "ticks"});
    l.push_back({"mem.bus.wait_ticks", c["bus.waitTicks"], "ticks"});
    l.push_back({"mem.slc.demand_reads", c["slc.demandReads"], "count"});
    l.push_back({"mem.slc.miss_frac",
                 share(c["slc.demandReadMisses"], c["slc.demandReads"]),
                 "frac"});
    l.push_back({"mem.dir.requests", dir, "count"});
    l.push_back({"mem.dir.busy_queued_frac",
                 share(c["mem.queuedAtBusyEntry"], dir), "frac"});
    l.push_back({"core.pf_issued", c["slc.pfIssued"], "count"});
    l.push_back({"core.pf_useful_frac", share(useful, c["slc.pfIssued"]),
                 "frac"});
    l.push_back({"core.pf_late_frac", share(c["slc.pfUsefulLate"], useful),
                 "frac"});
    l.push_back({"core.pf_drop_frac",
                 share(drops, drops + c["slc.pfIssued"]), "frac"});
    l.push_back({"net.mesh.messages", c["mesh.messages"], "count"});
    l.push_back({"net.mesh.flits", c["mesh.flits"], "count"});
}

/**
 * Capture and replay every cell once (the traced run's layer replays).
 * The one capture run per cell is compared with @p untraced_wall, the
 * sum of per-cell median wall times, for the tracing overhead.
 */
void
addReplays(const Workload &w, const Args &args, double untraced_wall,
           Outcome &o)
{
    std::filesystem::create_directories(args.scratch);
    Capture cap;
    cap.path = args.scratch + "/perfbench-" + std::to_string(getpid()) +
               ".psimtrace";
    double capture_wall = 0;
    for (const Cell &cell : w.cells) {
        std::vector<RunRecord> runs;
        const double replay0 = cap.replayWallS;
        capture_wall += runCell(cell, runs, &cap)[kWall] -
                        (cap.replayWallS - replay0);
        for (RunRecord &r : runs) {
            ++o.attempted;
            if (!r.ok) {
                ++o.failed;
                o.failures.push_back(r.id + " (traced): " + r.why);
            }
        }
    }
    const ReplayTotals &t = cap.replay;
    auto &l = o.layers;
    l.push_back({"sim.event_ns", nsPer(t.eventS, t.records), "ns"});
    l.push_back({"mem.cache_probe_ns", nsPer(t.probeS, t.records), "ns"});
    l.push_back({"core.observe_ns", nsPer(t.observeS, t.observations),
                 "ns"});
    l.push_back({"core.candidates_per_obs",
                 share(static_cast<double>(t.candidates),
                       static_cast<double>(t.observations)),
                 "count"});
    l.push_back({"net.traverse_ns", nsPer(t.traverseS, t.traversals), "ns"});
    l.push_back({"trace.records", static_cast<double>(t.records), "count"});
    l.push_back({"trace.overhead_s", capture_wall - untraced_wall, "s"});
}

Outcome
runWorkload(const std::string &name, const Args &args)
{
    Outcome o;
    o.name = name;
    const Workload w = planWorkload(name, args.seed);
    Measured m = measure(w, args.seconds, args.emitPins);
    o.checks = checkPinned(w, args, m);

    double refs = 0, ticks = 0, issued = 0, useful = 0;
    std::vector<double> miss_rel, stall_rel, flits_rel;
    std::map<std::string, double> fig6;
    std::map<std::string, const RunRecord *> base;
    for (const RunRecord &r : m.runs)
        if (r.scheme == PrefetchScheme::None)
            base[r.group] = &r;
    for (const RunRecord &r : m.runs) {
        ++o.attempted;
        if (!r.ok) {
            ++o.failed;
            o.failures.push_back(r.id + ": " + r.why);
        }
        refs += r.sim.reads + r.sim.writes;
        ticks += static_cast<double>(r.sim.execTicks);
        if (r.scheme == PrefetchScheme::None)
            continue;
        issued += r.sim.pfIssued;
        useful += r.sim.pfUseful;
        auto b = base.find(r.group);
        if (b == base.end())
            continue;
        const psim::RunMetrics &bs = b->second->sim;
        miss_rel.push_back(ratio(r.sim.readMisses, bs.readMisses));
        stall_rel.push_back(ratio(r.sim.readStall, bs.readStall));
        flits_rel.push_back(ratio(r.sim.flits, bs.flits));
        if (const char *k = fig6Key(r.scheme))
            fig6[r.group + "/" + k] = miss_rel.back();
    }


    // Host times are each cell's slowest repetition. A shared host
    // runs at a base speed most of the time and about 1.5x faster in
    // bursts that its other tenants control; whether a repetition hit
    // a burst moves the fastest and the median repetition from run to
    // run, while the slowest tracks the base speed (README.md gives
    // the measurements). Set-up time is the median of the cell's
    // set-ups.
    const double wall = sumOverCells(m, {kWall}, maximum);
    o.endToEnd = {
        {"wall_s", wall, "s"},
        {"cpu_s", sumOverCells(m, {kCpu}, maximum), "s"},
        {"setup_s", sumOverCells(m, {kCtor, kAttach}, median), "s"},
        {"host_ns_per_ref",
         nsPer(sumOverCells(m, {kRun}, maximum),
               static_cast<std::uint64_t>(refs)),
         "ns"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_ticks", ticks, "ticks"},
        {"sim_read_miss_rel", geomean(miss_rel), "ratio"},
        {"sim_read_stall_rel", geomean(stall_rel), "ratio"},
        {"sim_pf_efficiency", ratio(useful, issued), "ratio"},
        {"sim_flits_rel", geomean(flits_rel), "ratio"},
    };
    o.extra.push_back({"failed_frac", failedFrac(o.failed, o.attempted),
                       "frac"});
    if (name == "paper16")
        o.extra.push_back({"paper_fig6_err", fig6Error(fig6), "ratio"});
    std::size_t reps = 0;
    for (const auto &cell : m.samples)
        reps += cell.size();
    o.extra.push_back({"repetitions_per_cell",
                       static_cast<double>(reps) /
                               static_cast<double>(m.samples.size()),
                       "count"});
    for (const Metric &e : o.endToEnd) {
        if (!std::isfinite(e.value)) {
            ++o.failed;
            o.failures.push_back("metric " + e.name + " is not finite");
        }
    }

    if (args.trace) {
        for (int s = kCtor; s < kNumSpans; ++s)
            o.layers.push_back({kSpanNames[s],
                                sumOverCells(m, {static_cast<Span>(s)},
                                             maximum),
                                "s"});
        addLayerCounts(m.runs, o);
        addReplays(w, args, sumOverCells(m, {kWall}, median), o);
    }

    if (args.emitPins) {
        std::printf("{\"key\": \"%s\", \"digests\": {", w.pinKey.c_str());
        for (std::size_t i = 0; i < w.cells.size(); ++i)
            std::printf("%s\"%s\": \"%s\"", i ? ", " : "",
                        w.cells[i].id.c_str(),
                        digestHex(cellDigest(m, i)).c_str());
        std::printf("}}\n");
    }
    return o;
}

void
printTable(const Outcome &o, const Args &args)
{
    std::printf("workload %s (seed %llu, %s): %llu runs, %llu failed; "
                "checked %s\n",
                o.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.trace ? "traced" : "untraced",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed), o.checks.c_str());
    for (const std::string &f : o.failures)
        std::printf("  FAILED %s\n", f.c_str());
    for (const auto *list : {&o.endToEnd, &o.extra, &o.layers})
        for (const Metric &e : *list)
            std::printf("  %-30s %16.6f %s\n", e.name.c_str(), e.value,
                        e.unit);
}

std::string
jsonMetrics(const std::vector<Metric> &list)
{
    std::string s;
    char buf[64];
    for (const Metric &e : list) {
        std::snprintf(buf, sizeof buf, "%.17g", e.value);
        s += (s.empty() ? "\"" : ", \"") + e.name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + e.unit + "\"}";
    }
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Outcome o = runWorkload(args.workload, args);
    if (args.emitPins)
        return o.failed ? 1 : 0;
    printTable(o, args);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                o.failed ? "false" : "true",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed),
                jsonMetrics(args.trace ? o.layers : o.endToEnd).c_str());
    return o.failed ? 1 : 0;
}
