/**
 * @file
 * Tests for the machine-readable observability layer: the registry's
 * JSON stats export, the interval sampler and the chrome-trace
 * exporter — including the load-bearing invariant that observability
 * is read-only (enabling it never changes simulated behaviour).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/driver.hh"
#include "sim/sampler.hh"
#include "sim/stats.hh"
#include "trace/chrome_trace.hh"

using namespace psim;

namespace
{

MachineConfig
smallConfig(PrefetchScheme scheme = PrefetchScheme::Sequential)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.prefetch.scheme = scheme;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Registry JSON rendering
// ---------------------------------------------------------------------

TEST(StatsJson, EscapesAndFormats)
{
    EXPECT_EQ(stats::jsonEscape("plain"), "plain");
    EXPECT_EQ(stats::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(stats::jsonEscape("x\ny"), "x\\ny");
    EXPECT_EQ(stats::jsonNumber(2), "2");
    EXPECT_EQ(stats::jsonNumber(2.5), "2.5");
    // JSON has no NaN/inf; non-finite values render as null.
    EXPECT_EQ(stats::jsonNumber(0.0 / 0.0), "null");
    EXPECT_EQ(stats::jsonNumber(1.0 / 0.0), "null");
}

TEST(StatsJson, RegistryDocumentShape)
{
    stats::Registry registry;
    stats::Scalar a, b;
    a = 3;
    b = 4.5;
    stats::Group &g = registry.addGroup("unit.grp");
    g.addScalar("alpha", &a, "first");
    g.addScalar("beta", &b, "second");

    std::ostringstream os;
    registry.dumpJson(os);
    EXPECT_EQ(os.str(),
            "{\"schema\":\"psim-stats-v1\",\"groups\":["
            "{\"name\":\"unit.grp\",\"scalars\":["
            "{\"name\":\"alpha\",\"desc\":\"first\",\"value\":3},"
            "{\"name\":\"beta\",\"desc\":\"second\",\"value\":4.5}"
            "],\"averages\":[],\"histograms\":[]}]}\n");
}

TEST(StatsJson, ExtraMembersAreSpliced)
{
    stats::Registry registry;
    registry.addGroup("g");
    std::ostringstream os;
    registry.dumpJson(os, ",\"samples\":{\"interval\":5}");
    EXPECT_NE(os.str().find("\"samples\":{\"interval\":5}"),
              std::string::npos);
}

// The JSON document and the classic text dump are two renderings of
// the same registry: every scalar in the text dump must appear in the
// JSON with the same value.
TEST(StatsJson, MatchesTextDumpForARealRun)
{
    apps::Run run = apps::runWorkload("lu", smallConfig());
    ASSERT_TRUE(run.finished);

    std::ostringstream json;
    run.machine->dumpStatsJson(json);
    const std::string doc = json.str();
    EXPECT_NE(doc.find("\"schema\":\"psim-stats-v1\""),
              std::string::npos);

    std::size_t groups = 0, checked = 0;
    for (const auto &g : run.machine->registry().groups()) {
        ++groups;
        EXPECT_NE(doc.find("\"name\":\"" + g->name() + "\""),
                  std::string::npos) << g->name();
        for (const char *stat :
             {"demandReads", "demandReadMisses", "pfIssued"}) {
            const stats::Scalar *s = g->findScalar(stat);
            if (!s)
                continue;
            std::string entry = "{\"name\":\"" + std::string(stat) +
                                "\",";
            std::size_t pos = doc.find(entry);
            ASSERT_NE(pos, std::string::npos) << g->name() << "." << stat;
            std::string value = "\"value\":" +
                                stats::jsonNumber(s->value());
            EXPECT_NE(doc.find(value, pos), std::string::npos)
                    << g->name() << "." << stat << " = " << s->value();
            ++checked;
        }
    }
    // 4 nodes x (slc + pf groups at least) plus mesh.
    EXPECT_GE(groups, 9u);
    EXPECT_GE(checked, 4u);
}

// ---------------------------------------------------------------------
// Interval sampler
// ---------------------------------------------------------------------

TEST(Sampler, SnapshotsAtTheConfiguredInterval)
{
    apps::RunOptions opts;
    opts.obs.sampleInterval = 1000;
    apps::Run run = apps::runWorkload("lu", smallConfig(), opts);
    ASSERT_TRUE(run.finished);

    const stats::Sampler *s = run.machine->sampler();
    ASSERT_NE(s, nullptr);
    ASSERT_FALSE(s->rows().empty());
    Tick expect = 1000;
    for (const auto &row : s->rows()) {
        EXPECT_EQ(row.tick, expect);
        EXPECT_EQ(row.values.size(), s->probeNames().size());
        expect += 1000;
    }
    // Samples cover the whole run (the last snapshot falls within one
    // interval of the end).
    EXPECT_GE(s->rows().back().tick + 1000,
              run.metrics.execTicks);

    // Counter probes are monotonic over time.
    std::size_t miss_col = 0;
    const auto &names = s->probeNames();
    while (miss_col < names.size() && names[miss_col] != "node0.readMisses")
        ++miss_col;
    ASSERT_LT(miss_col, names.size());
    double prev = 0;
    for (const auto &row : s->rows()) {
        EXPECT_GE(row.values[miss_col], prev);
        prev = row.values[miss_col];
    }
}

TEST(Sampler, RowAtTickTIsTheStateBelowT)
{
    // The one sampling semantics: the row stamped T snapshots the
    // machine after every event before tick T and none at or after it,
    // i.e. exactly where a run limited to T - 1 stops.
    apps::RunOptions opts;
    opts.obs.sampleInterval = 1000;
    apps::Run run = apps::runWorkload("lu", smallConfig(), opts);
    ASSERT_TRUE(run.finished);
    const stats::Sampler *s = run.machine->sampler();
    const auto &names = s->probeNames();
    std::size_t col = 0;
    while (col < names.size() && names[col] != "node0.readMisses")
        ++col;
    ASSERT_LT(col, names.size());
    ASSERT_GE(s->rows().size(), 8u);

    for (std::size_t r : {std::size_t{2}, s->rows().size() / 2}) {
        const stats::Sampler::Row &row = s->rows()[r];
        Machine m(smallConfig());
        auto wl = apps::makeWorkload("lu", 1);
        wl->attach(m);
        m.run(row.tick - 1);
        ASSERT_FALSE(m.allFinished()) << "T=" << row.tick;
        EXPECT_EQ(row.values[col],
                  m.node(0).slc().demandReadMisses.value())
                << "T=" << row.tick;
    }
}

TEST(Sampler, CsvAndJsonRenderTheSameSeries)
{
    apps::RunOptions opts;
    opts.obs.sampleInterval = 2000;
    apps::Run run = apps::runWorkload("lu", smallConfig(), opts);
    const stats::Sampler *s = run.machine->sampler();
    ASSERT_NE(s, nullptr);

    std::ostringstream csv;
    s->dumpCsv(csv);
    std::string header = csv.str().substr(0, csv.str().find('\n'));
    EXPECT_EQ(header.rfind("tick,", 0), 0u);
    // One header line plus one line per row.
    std::size_t lines = 0;
    for (char c : csv.str())
        lines += c == '\n';
    EXPECT_EQ(lines, 1 + s->rows().size());

    std::ostringstream json;
    s->dumpJson(json);
    EXPECT_NE(json.str().find("\"interval\":2000"), std::string::npos);
    EXPECT_NE(json.str().find("\"rows\":["), std::string::npos);

    // The machine splices the series into the stats document.
    std::ostringstream doc;
    run.machine->dumpStatsJson(doc);
    EXPECT_NE(doc.str().find("\"samples\":{\"interval\":2000"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// The read-only invariant
// ---------------------------------------------------------------------

// Enabling the sampler and the chrome tracer must not perturb the
// simulation: the aggregate statistics dump is byte-identical.
TEST(Observability, DoesNotChangeSimulatedBehavior)
{
    std::string plain, observed;
    RunMetrics plain_mx, observed_mx;
    {
        apps::Run run = apps::runWorkload("lu", smallConfig());
        ASSERT_TRUE(run.finished && run.verified);
        std::ostringstream os;
        run.machine->dumpStats(os);
        plain = os.str();
        plain_mx = run.metrics;
    }
    {
        apps::RunOptions opts;
        opts.obs.sampleInterval = 500;
        apps::Run run = apps::runWorkload("lu", smallConfig(), opts);
        ASSERT_TRUE(run.finished && run.verified);
        run.machine->metrics();
        std::ostringstream os;
        run.machine->dumpStats(os);
        observed = os.str();
        observed_mx = run.metrics;
    }
    EXPECT_EQ(plain, observed);
    EXPECT_EQ(plain_mx.execTicks, observed_mx.execTicks);
    EXPECT_DOUBLE_EQ(plain_mx.readMisses, observed_mx.readMisses);
    EXPECT_DOUBLE_EQ(plain_mx.flits, observed_mx.flits);
}

TEST(Observability, ChromeTraceIsReadOnlyToo)
{
    RunMetrics plain_mx;
    {
        apps::Run run = apps::runWorkload("lu", smallConfig());
        plain_mx = run.metrics;
    }
    apps::Run run;
    {
        // The machine is driven directly to keep the test free of
        // filesystem output.
        run.machine = std::make_unique<Machine>(smallConfig());
        run.workload = apps::makeWorkload("lu", 1);
        run.machine->enableChromeTrace();
        run.workload->attach(*run.machine);
        run.machine->run();
        ASSERT_TRUE(run.machine->allFinished());
        run.metrics = run.machine->metrics();
    }
    EXPECT_EQ(plain_mx.execTicks, run.metrics.execTicks);
    EXPECT_DOUBLE_EQ(plain_mx.readMisses, run.metrics.readMisses);
    EXPECT_DOUBLE_EQ(plain_mx.pfIssued, run.metrics.pfIssued);

    const ChromeTracer *t = run.machine->chromeTracer();
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->eventCount(), 0u);

    std::ostringstream os;
    t->write(os);
    const std::string doc = os.str();
    EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
                        0), 0u);
    EXPECT_EQ(doc.substr(doc.size() - 3), "]}\n");
    // Demand misses, prefetch lifecycles and mesh transits all appear.
    EXPECT_NE(doc.find("\"cat\":\"demand\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"prefetch\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"prefetch-fate\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"mesh\""), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":1000"), std::string::npos);
}

TEST(Observability, ChromeWindowRestrictsRecording)
{
    auto runWindowed = [](Tick start, Tick end) {
        auto machine = std::make_unique<Machine>(smallConfig());
        auto wl = apps::makeWorkload("lu", 1);
        machine->enableChromeTrace(start, end);
        wl->attach(*machine);
        machine->run();
        return machine->chromeTracer()->eventCount();
    };
    std::size_t full = runWindowed(0, kTickNever);
    std::size_t windowed = runWindowed(1000, 2000);
    EXPECT_GT(full, windowed);
    EXPECT_GT(windowed, 0u);
}

// ---------------------------------------------------------------------
// The sampler on the sharded engine
// ---------------------------------------------------------------------

TEST(Sampler, BoundaryDrivenSeriesIsShardCountInvariant)
{
    // On the sharded engine rows snapshot at the first window boundary
    // at or after each sample tick; boundaries are shard-count
    // invariant, so the whole CSV must be too.
    auto csvAtShards = [](unsigned shards) {
        MachineConfig cfg = smallConfig();
        cfg.shards = shards;
        apps::RunOptions opts;
        opts.obs.sampleInterval = 2000;
        apps::Run run = apps::runWorkload("lu", cfg, opts);
        EXPECT_TRUE(run.finished) << "shards=" << shards;
        std::ostringstream os;
        run.machine->sampler()->dumpCsv(os);
        return os.str();
    };
    std::string ref = csvAtShards(1);
    ASSERT_GT(ref.size(), ref.find('\n') + 1) << "no sample rows";
    EXPECT_EQ(ref, csvAtShards(2));
    EXPECT_EQ(ref, csvAtShards(4));
}

TEST(Observability, ShardedPathIsReadOnlyToo)
{
    // Same invariant as DoesNotChangeSimulatedBehavior, on the sharded
    // engine: sampling plus chrome tracing must not move a single tick.
    auto statsAt = [](bool observed) {
        MachineConfig cfg = smallConfig();
        cfg.shards = 4;
        Machine m(cfg);
        auto wl = apps::makeWorkload("lu", 1);
        if (observed) {
            m.enableSampling(500);
            m.enableChromeTrace();
        }
        wl->attach(m);
        m.run();
        EXPECT_TRUE(m.allFinished());
        std::ostringstream os;
        m.dumpStats(os);
        return os.str();
    };
    EXPECT_EQ(statsAt(false), statsAt(true));
}

// ---------------------------------------------------------------------
// Option plumbing
// ---------------------------------------------------------------------

TEST(ObservabilityOptions, ParsesEveryFlag)
{
    const char *argv[] = {"prog", "--stats-json", "out/", "--sample-interval",
                          "250", "--sample-csv", "csv/",
                          "--chrome-trace", "ct/", "--chrome-window",
                          "100:900"};
    int argc = 11;
    apps::ObservabilityOptions obs;
    for (int i = 1; i < argc; ++i) {
        EXPECT_TRUE(obs.parseArg(argc, const_cast<char **>(argv), &i));
    }
    EXPECT_EQ(obs.statsJsonPrefix, "out/");
    EXPECT_EQ(obs.sampleCsvPrefix, "csv/");
    EXPECT_EQ(obs.chromeTracePrefix, "ct/");
    EXPECT_EQ(obs.sampleInterval, 250u);
    EXPECT_EQ(obs.chromeStart, 100u);
    EXPECT_EQ(obs.chromeEnd, 900u);

    // Non-observability arguments are left alone.
    const char *other[] = {"prog", "--jobs", "4"};
    int oi = 1;
    EXPECT_FALSE(obs.parseArg(3, const_cast<char **>(other), &oi));
    EXPECT_EQ(oi, 1);
}

namespace
{

bool
fileNonEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in && in.tellg() > 0;
}

} // namespace

TEST(ObservabilityOptions, RunWorkloadWritesOneFilePerPrefix)
{
    // A grid cell appends its stem to every prefix; a single run (no
    // cell) uses each prefix as the path itself.
    const std::string dir = ::testing::TempDir();
    apps::RunOptions opts;
    opts.obs.statsJsonPrefix = dir + "stats-";
    opts.obs.sampleCsvPrefix = dir + "samples-";
    opts.obs.chromeTracePrefix = dir + "chrome-";
    opts.obs.sampleInterval = 2000;
    opts.cell = "lu-seq";
    apps::Run cell = apps::runWorkload("lu", smallConfig(), opts);
    ASSERT_TRUE(cell.finished && cell.verified);
    for (const char *f : {"stats-lu-seq.json", "samples-lu-seq.csv",
                          "chrome-lu-seq.json"}) {
        EXPECT_TRUE(fileNonEmpty(dir + f)) << f;
        std::remove((dir + f).c_str());
    }

    opts.cell.clear();
    opts.obs.statsJsonPrefix = dir + "single.stats";
    opts.obs.sampleCsvPrefix = dir + "single.csv";
    opts.obs.chromeTracePrefix = dir + "single.chrome";
    opts.tracePath = dir + "single.psimtrace";
    apps::Run single = apps::runWorkload("lu", smallConfig(), opts);
    ASSERT_TRUE(single.finished && single.verified);
    ASSERT_NE(single.trace, nullptr);
    EXPECT_GT(single.trace->count(), 0u);
    for (const char *f : {"single.stats", "single.csv", "single.chrome",
                          "single.psimtrace"}) {
        EXPECT_TRUE(fileNonEmpty(dir + f)) << f;
        std::remove((dir + f).c_str());
    }
}
