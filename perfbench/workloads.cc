#include "workloads.hh"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "apps/workload.hh"
#include "arith.hh"
#include "check/fuzz.hh"
#include "check/fuzzgen.hh"
#include "check/oracle.hh"
#include "sim/audit.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace perfbench
{

using namespace psim;

namespace
{

/**
 * The fuzz seed corpus, copied from bench/fuzz_corpus.txt when the
 * benchmark was defined. Kept here so the workload does not move when
 * the CI corpus grows.
 */
constexpr std::uint64_t kFuzzCorpus[] = {
    1,    2,    3,     4,      5,     6,      7,      8,
    9,    10,   11,    12,     13,    14,     15,     16,
    23,   42,   97,    128,    255,   256,    1000,   4095,
    4096, 65537, 99991, 123456, 987654, 2654435761ULL,
};

/**
 * A fixed range of generated programs run beyond the corpus. Program
 * cost varies several-fold from fuzz seed to fuzz seed, so a range
 * drawn from the benchmark seed would move every metric with the seed;
 * fuzz_audit's inputs are therefore the same for every benchmark seed.
 */
constexpr std::uint64_t kFuzzRangeBase = 1'000'000;
constexpr std::uint64_t kFuzzRangeLen = 60;

/** The same per-run quiesce deadline check::FuzzOptions uses. */
constexpr Tick kFuzzTickLimit = 50'000'000;

struct SchemeCol
{
    const char *name; ///< parseScheme() name
    const char *id;   ///< cell-id fragment in the golden documents
};

void
addAppCells(Workload &w, const std::vector<std::string> &apps,
            const std::vector<SchemeCol> &schemes, const MachineConfig &base,
            unsigned scale)
{
    for (const std::string &app : apps) {
        for (const SchemeCol &s : schemes) {
            Cell c;
            c.id = app + "-" + s.id;
            c.cfg = base;
            c.cfg.prefetch.scheme = parseScheme(s.name);
            c.cfg.validate();
            c.app = app;
            c.scale = scale;
            w.cells.push_back(std::move(c));
        }
    }
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Accumulates host time into one span per call. */
class SpanClock
{
  public:
    explicit SpanClock(SpanTimes &t) : _t(t) { _t.fill(0); }

    template <typename Fn>
    auto
    time(Span s, Fn &&fn)
    {
        auto t0 = std::chrono::steady_clock::now();
        struct Stop
        {
            double &acc;
            std::chrono::steady_clock::time_point t0;
            ~Stop()
            {
                acc += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
            }
        } stop{_t[s], t0};
        return fn();
    }

  private:
    SpanTimes &_t;
};

/** Registry counters the per-layer metrics are built from. */
constexpr std::pair<const char *, const char *> kCounted[] = {
    {"cpu", "loads"},          {"cpu", "stores"},
    {"cpu", "readStall"},      {"cpu", "writeStall"},
    {"cpu", "lockStall"},      {"cpu", "barrierStall"},
    {"flc", "reads"},          {"flc", "readMisses"},
    {"flwb", "pushes"},        {"flwb", "retries"},
    {"bus", "busyTicks"},      {"bus", "waitTicks"},
    {"slc", "demandReads"},    {"slc", "demandReadMisses"},
    {"slc", "writeRequests"},
    {"slc", "pfIssued"},       {"slc", "pfUsefulTagged"},
    {"slc", "pfUsefulLate"},   {"slc", "pfDropInCache"},
    {"slc", "pfDropPending"},  {"slc", "pfDropPageCross"},
    {"slc", "pfDropNoSlot"},   {"mem", "readReqs"},
    {"mem", "readExReqs"},     {"mem", "upgradeReqs"},
    {"mem", "queuedAtBusyEntry"},
};

Counts
readCounts(const Machine &m)
{
    const stats::Registry &reg = m.registry();
    auto scalar = [&reg](const std::string &group, const char *name) {
        const stats::Group *g = reg.find(group);
        const stats::Scalar *s = g ? g->findScalar(name) : nullptr;
        if (!s)
            psim_fatal("perfbench: statistic %s.%s is not registered",
                       group.c_str(), name);
        return s->value();
    };
    Counts c;
    for (const auto &[group, name] : kCounted) {
        double sum = 0;
        for (unsigned n = 0; n < m.numProcs(); ++n)
            sum += scalar("node" + std::to_string(n) + "." + group, name);
        c[std::string(group) + "." + name] = sum;
    }
    c["mesh.messages"] = scalar("mesh", "messages");
    c["mesh.flits"] = scalar("mesh", "flits");
    return c;
}

/** The metric set of a psim-results-v1 cell (sim/spec.cc). */
json::Value
resultsMetrics(Machine &m, const RunMetrics &r)
{
    double write_stall = 0, upgrades = 0, migratory = 0;
    for (unsigned n = 0; n < m.numProcs(); ++n) {
        Node &node = m.node(static_cast<NodeId>(n));
        write_stall += node.cpu().writeStall.value();
        upgrades += node.slc().upgrades.value();
        migratory += node.mem().migratoryGrants.value();
    }
    const Slc &slc0 = m.node(0).slc();
    json::Value v = json::Value::makeObject();
    v.set("exec_ticks", static_cast<unsigned long long>(r.execTicks));
    v.set("reads", r.reads);
    v.set("writes", r.writes);
    v.set("slc_reads", r.slcReads);
    v.set("read_misses", r.readMisses);
    v.set("read_stall", r.readStall);
    v.set("misses_cold", r.missesCold);
    v.set("misses_coherence", r.missesCoherence);
    v.set("misses_replacement", r.missesReplacement);
    v.set("pf_issued", r.pfIssued);
    v.set("pf_useful", r.pfUseful);
    v.set("prefetch_efficiency", r.prefetchEfficiency());
    v.set("flits", r.flits);
    v.set("bus_transactions", r.busTransactions);
    v.set("write_stall", write_stall);
    v.set("upgrades", upgrades);
    v.set("migratory_grants", migratory);
    v.set("node0_demand_read_misses", slc0.demandReadMisses.value());
    v.set("node0_replacement_misses", slc0.missesReplacement.value());
    return v;
}

/** Fill the statistics fields of @p rec from the finished machine. */
void
collect(Machine &m, RunRecord &rec)
{
    rec.sim = m.metrics();
    rec.metrics = resultsMetrics(m, rec.sim);
    rec.digest = fnv1a(json::serialize(rec.metrics));
    rec.counts = readCounts(m);
}

/**
 * FNV-1a over the final memory image in page order, all-zero pages
 * skipped: the digest check::runOneScheme reports (the self-test holds
 * the two equal).
 */
std::uint64_t
imageDigest(const BackingStore &store)
{
    std::map<Addr, std::vector<std::uint8_t>> pages;
    store.forEachPage([&](Addr base, const std::uint8_t *bytes,
                          unsigned len) {
        bool zero = true;
        for (unsigned i = 0; i < len && zero; ++i)
            zero = bytes[i] == 0;
        if (!zero)
            pages.emplace(base, std::vector<std::uint8_t>(bytes, bytes + len));
    });
    std::uint64_t h = kFnvOffset;
    for (const auto &[base, bytes] : pages) {
        h = fnv1a(&base, sizeof base, h);
        h = fnv1a(bytes.data(), bytes.size(), h);
    }
    return h;
}

/** Tracing for one machine of a traced cell; a no-op without capture. */
class CaptureScope
{
  public:
    CaptureScope(Capture *cap, Machine &m) : _cap(cap)
    {
        if (_cap) {
            _writer = std::make_unique<TraceWriter>(_cap->path);
            m.enableTracing(*_writer);
        }
    }

    /** Close the capture and replay it against the finished machine. */
    void
    replay(Machine &m)
    {
        if (!_cap)
            return;
        const auto t0 = std::chrono::steady_clock::now();
        _writer->close();
        replayTrace(_cap->path, m.cfg(), m.store(), _cap->replay);
        std::remove(_cap->path.c_str());
        _cap->replayWallS += std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count();
    }

  private:
    Capture *_cap;
    std::unique_ptr<TraceWriter> _writer;
};

void
runApp(const Cell &cell, SpanClock &clk, std::vector<RunRecord> &out,
       Capture *cap)
{
    MachineConfig cfg = cell.cfg;
    if (cap)
        cfg.shards = 0;
    RunRecord rec;
    rec.id = cell.id;
    rec.group = cell.app;
    rec.scheme = cfg.prefetch.scheme;

    auto m = clk.time(kCtor, [&] { return std::make_unique<Machine>(cfg); });
    CaptureScope scope(cap, *m);
    auto wl = clk.time(kAttach, [&] {
        auto w = apps::makeWorkload(cell.app, cell.scale);
        w->attach(*m);
        return w;
    });
    clk.time(kRun, [&] { return m->run(); });
    if (!m->allFinished()) {
        rec.ok = false;
        rec.why = "did not run to completion";
    } else if (!clk.time(kVerify, [&] { return wl->verify(*m); })) {
        rec.ok = false;
        rec.why = "failed numerical verification";
    } else {
        clk.time(kInvariants, [&] { m->checkCoherenceInvariants(); });
    }
    clk.time(kStats, [&] { collect(*m, rec); });
    out.push_back(std::move(rec));
    scope.replay(*m);
}

/**
 * One fuzz program on every scheme. Each run repeats check::
 * runOneScheme's steps, with its machine config (configFor() in
 * check/fuzz.cc) and checks, so that every step gets a span and the
 * machine's statistics stay readable; the self-test holds the two
 * equal.
 */
void
runFuzz(const Cell &cell, SpanClock &clk, SpanTimes &t,
        std::vector<RunRecord> &out, Capture *cap)
{
    check::ProgramSpec spec = clk.time(kGenerate, [&] {
        return check::ProgramSpec::generate(cell.fuzzSeed);
    });
    const std::size_t first = out.size();
    std::vector<std::uint64_t> images;
    for (PrefetchScheme scheme : check::fuzzSchemes()) {
        MachineConfig cfg = cell.cfg;
        cfg.numProcs = spec.threads;
        if (cfg.numProcs < 4)
            cfg.meshCols = cfg.numProcs;
        cfg.prefetch.scheme = scheme;
        cfg.prefetch.degree = spec.degree;
        cfg.seed = spec.seed;
        RunRecord rec;
        rec.id = "fuzz" + std::to_string(cell.fuzzSeed) + "-" +
                 toString(scheme);
        rec.group = "fuzz" + std::to_string(cell.fuzzSeed);
        rec.scheme = scheme;

        const auto t0 = std::chrono::steady_clock::now();
        auto m = clk.time(kCtor,
                          [&] { return std::make_unique<Machine>(cfg); });
        CaptureScope scope(cap, *m);
        check::FuzzWorkload wl(spec);
        check::AccessLog log;
        check::Oracle oracle(cfg.pageSize);
        clk.time(kAttach, [&] {
            m->enableCommitRecording(log);
            wl.attach(*m);
        });
        clk.time(kOracle, [&] { oracle.snapshotInitial(m->store()); });
        clk.time(kRun, [&] { return m->run(kFuzzTickLimit); });
        const bool finished = m->allFinished();
        const bool verified =
                finished && clk.time(kVerify, [&] { return wl.verify(*m); });
        check::OracleReport rep = clk.time(kOracle, [&] {
            audit::LedgerSnapshot ledger = m->auditor()->exportLedger();
            return oracle.check(log, m->store(), &ledger);
        });
        const std::uint64_t image = imageDigest(m->store());
        clk.time(kStats, [&] {
            collect(*m, rec);
            const std::uint64_t extra[] = {image, rep.loadsChecked,
                                           rep.storesReplayed,
                                           rep.prefetchesChecked};
            rec.digest = fnv1a(extra, sizeof extra, rec.digest);
        });
        t[kRunScheme] += std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
        if (!finished)
            rec.why = "did not quiesce";
        else if (!rep.ok())
            rec.why = std::to_string(rep.total) + " oracle divergences; "
                      "first: " + rep.divergences.front().describe();
        else if (!verified)
            rec.why = "native verification failed";
        rec.ok = rec.why.empty();
        images.push_back(image);
        out.push_back(std::move(rec));
        scope.replay(*m);
    }
    for (std::size_t i = 1; i < images.size(); ++i) {
        RunRecord &rec = out[first + i];
        if (rec.ok && images[i] != images[0]) {
            rec.ok = false;
            rec.why = "final memory image differs from the baseline run";
        }
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper16", "bfs64_s2", "server_mix", "fuzz_audit"};
    return names;
}

Workload
planWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    w.pinKey = std::to_string(seed);
    MachineConfig base;
    base.seed = seed;
    base.audit = false;
    if (name == "paper16") {
        // The Figure-6 grid (specs/fig6.json): d = 1, infinite SLC,
        // 16 nodes, serial engine.
        addAppCells(w, {"mp3d", "cholesky", "water", "lu", "ocean", "pthor"},
                    {{"none", "baseline"}, {"idet", "i-det"},
                     {"ddet", "d-det"}, {"seq", "seq"}},
                    base, 1);
        w.golden = "BENCH_fig6.json";
    } else if (name == "bfs64_s2") {
        // Server BFS on an 8x8 mesh at scale 2, sharded over two host
        // threads; the baseline cell gives the relative metrics a base.
        // One query per cell, not the default three, so that a run
        // holds several repetitions of each cell: the per-cell slowest
        // repetition needs them to be steady (README.md).
        applyProcCount(base, 64);
        base.shards = 2;
        base.server.requests = 1;
        addAppCells(w, {"bfs"}, {{"none", "baseline"}, {"seq", "seq"}}, base,
                    2);
    } else if (name == "server_mix") {
        // The specs/extension_nextgen.json grid: Zipf theta 0.99.
        addAppCells(w, {"kvstore", "hashjoin", "bfs", "logappend"},
                    {{"none", "baseline"}, {"seq", "seq"},
                     {"mstride", "m-stride"}, {"chase", "chase"},
                     {"ptron", "ptron"}},
                    base, 1);
        w.golden = "BENCH_extension_nextgen.json";
    } else if (name == "fuzz_audit") {
        if (!audit::compiledIn())
            psim_fatal("perfbench: fuzz_audit needs the audit layer "
                       "compiled in (PSIM_AUDIT=ON)");
        base.audit = true;
        w.pinKey = "any";
        std::vector<std::uint64_t> seeds(std::begin(kFuzzCorpus),
                                         std::end(kFuzzCorpus));
        for (std::uint64_t i = 0; i < kFuzzRangeLen; ++i)
            seeds.push_back(kFuzzRangeBase + i);
        for (std::uint64_t s : seeds) {
            Cell c;
            c.id = "fuzz" + std::to_string(s);
            c.cfg = base;
            c.fuzz = true;
            c.fuzzSeed = s;
            w.cells.push_back(std::move(c));
        }
    } else {
        std::string valid;
        for (const std::string &n : workloadNames())
            valid += (valid.empty() ? "" : ", ") + n;
        psim_fatal("perfbench: unknown workload '%s' (valid: %s)",
                   name.c_str(), valid.c_str());
    }
    return w;
}

SpanTimes
runCell(const Cell &cell, std::vector<RunRecord> &out, Capture *cap)
{
    SpanTimes t;
    SpanClock clk(t);
    const double cpu0 = cpuSeconds();
    const auto t0 = std::chrono::steady_clock::now();
    if (cell.fuzz)
        runFuzz(cell, clk, t, out, cap);
    else
        runApp(cell, clk, out, cap);
    t[kWall] = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    t[kCpu] = cpuSeconds() - cpu0;
    return t;
}

} // namespace perfbench
