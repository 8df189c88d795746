/**
 * @file
 * Self-tests of the benchmark's own arithmetic and replay plumbing.
 * Run with `python3 perfbench/run.py --selftest`; exits 1 on any
 * failed check.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "arith.hh"
#include "check/fuzz.hh"
#include "replay.hh"
#include "sim/json.hh"
#include "trace/trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

unsigned g_checks = 0;
unsigned g_failed = 0;

void
expect(bool ok, const char *what)
{
    ++g_checks;
    if (!ok) {
        ++g_failed;
        std::printf("FAILED: %s\n", what);
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testArithmetic()
{
    expect(near(median({3, 1, 2}), 2), "median of an odd count");
    expect(near(median({4, 1, 3, 2}), 2.5), "median of an even count");
    expect(std::isnan(median({})), "median of nothing is NaN");
    expect(near(maximum({3, 1, 2}), 3), "slowest repetition");
    expect(std::isnan(maximum({})), "maximum of nothing is NaN");

    expect(near(ratio(50, 200), 0.25), "ratio against its base cell");
    expect(std::isnan(ratio(5, 0)), "ratio against a zero base is NaN");

    expect(near(geomean({0.25, 1.0, 4.0}), 1.0), "geomean over cells");
    expect(near(geomean({0.5, 2.0, 0.0, kNaN}), 1.0),
           "geomean skips zero and NaN ratios");
    expect(std::isnan(geomean({})), "geomean of nothing is NaN");

    expect(near(failedFrac(3, 12), 0.25), "failed_frac");
    expect(near(failedFrac(0, 0), 0), "failed_frac of nothing attempted");

    // Hand-computed: MP3D measured 0.89 / 0.81 / 0.59 against the
    // paper's 0.95 / 0.95 / 0.72 -> (0.06 + 0.14 + 0.13) / 3 = 0.11.
    expect(near(fig6Error({{"mp3d/idet", 0.89},
                           {"mp3d/ddet", 0.81},
                           {"mp3d/seq", 0.59}}),
                0.11),
           "paper_fig6_err of one hand-computed cell");
    expect(std::isnan(fig6Error({{"fft/seq", 0.5}})),
           "paper_fig6_err without an overlapping cell is NaN");

    expect(near(nsPer(2e-9, 2), 1.0), "ns per operation");
    expect(near(nsPer(1.0, 0), 0.0), "ns per operation of nothing is 0");
}

void
testEmptyReplay(const std::string &scratch)
{
    const std::string path = scratch + "/selftest-empty.psimtrace";
    {
        psim::TraceWriter w(path);
        w.close();
    }
    psim::MachineConfig cfg;
    cfg.prefetch.scheme = psim::PrefetchScheme::Sequential;
    psim::BackingStore store(cfg.pageSize);
    ReplayTotals t;
    replayTrace(path, cfg, store, t);
    std::filesystem::remove(path);
    expect(t.records == 0 && t.observations == 0 && t.candidates == 0 &&
                   t.traversals == 0,
           "empty stream replays no work");
    expect(t.eventS == 0 && t.probeS == 0 && t.observeS == 0 &&
                   t.traverseS == 0,
           "empty stream takes no replay time");
}

/** Run cell @p id of workload @p name traced; its runs go to @p runs. */
ReplayTotals
replayCell(const std::string &name, const std::string &id,
           const std::string &scratch, std::vector<RunRecord> &runs)
{
    Workload w = planWorkload(name, 12345);
    Capture cap;
    cap.path = scratch + "/selftest-" + id + ".psimtrace";
    for (const Cell &c : w.cells)
        if (c.id == id)
            runCell(c, runs, &cap);
    expect(runs.size() == 1 && runs[0].ok, "traced run verifies");
    expect(!std::filesystem::exists(cap.path), "capture file is removed");
    return cap.replay;
}

void
testCapturedReplay(const std::string &scratch)
{
    std::vector<RunRecord> runs;
    const ReplayTotals t = replayCell("paper16", "lu-seq", scratch, runs);
    if (runs.size() != 1)
        return;
    const Counts &c = runs[0].counts;
    // Every SLC request is replayed; reads are the demand reads the
    // SLC counted, and a sequential prefetcher proposes candidates.
    expect(t.records == c.at("slc.demandReads") + c.at("slc.writeRequests"),
           "replay sees every SLC request");
    expect(t.observations == c.at("slc.demandReads"),
           "prefetcher replay sees every demand read");
    expect(t.traversals > 0, "replay crosses the mesh");
    // Sequential prefetching runs ahead on tagged hits: the replay has
    // to see them to propose at least what the machine issued.
    expect(t.taggedHits > 0, "replay sees tagged hits");
    expect(static_cast<double>(t.candidates) /
                           static_cast<double>(t.observations) >=
                   c.at("slc.pfIssued") / c.at("slc.demandReads"),
           "replayed candidates per observation cover the machine's "
           "prefetches per demand read");

    // A content-directed scheme also observes its fills.
    runs.clear();
    const ReplayTotals chase =
            replayCell("server_mix", "kvstore-chase", scratch, runs);
    if (runs.size() == 1)
        expect(chase.observations > runs[0].counts.at("slc.demandReads"),
               "content-directed replay observes fills");
}

void
testFuzzMatchesRunOneScheme()
{
    Workload w = planWorkload("fuzz_audit", 1);
    const Cell &cell = w.cells.at(2); // corpus seed 3
    std::vector<RunRecord> runs;
    runCell(cell, runs);
    const auto &schemes = psim::check::fuzzSchemes();
    expect(runs.size() == schemes.size(), "one run per fuzz scheme");
    const auto spec = psim::check::ProgramSpec::generate(cell.fuzzSeed);
    for (std::size_t i = 0; i < runs.size() && i < schemes.size(); ++i) {
        psim::check::SchemeRun ref = psim::check::runOneScheme(
                spec, schemes[i], {}, 50'000'000);
        const std::uint64_t extra[] = {ref.imageDigest,
                                       ref.oracle.loadsChecked,
                                       ref.oracle.storesReplayed,
                                       ref.oracle.prefetchesChecked};
        const std::uint64_t want = fnv1a(
                extra, sizeof extra,
                fnv1a(psim::json::serialize(runs[i].metrics)));
        expect(runs[i].ok && ref.finished && ref.verified &&
                       ref.oracle.ok(),
               "fuzz run and check::runOneScheme both pass");
        expect(runs[i].digest == want,
               "fuzz run reproduces runOneScheme's image and oracle counts");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // check::runOneScheme takes its audit setting from the environment;
    // the benchmark's fuzz runs always audit.
    setenv("PSIM_AUDIT", "1", 1);
    const std::string scratch = argc > 1 ? argv[1] : ".bench_build/tmp";
    std::filesystem::create_directories(scratch);
    testArithmetic();
    testEmptyReplay(scratch);
    testCapturedReplay(scratch);
    testFuzzMatchesRunOneScheme();
    std::printf("perfbench selftest: %u checks, %u failed\n", g_checks,
                g_failed);
    return g_failed ? 1 : 0;
}
