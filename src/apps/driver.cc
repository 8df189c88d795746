#include "apps/driver.hh"

#include <cstdlib>
#include <fstream>
#include <functional>

#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/sampler.hh"
#include "trace/chrome_trace.hh"

namespace psim::apps
{

namespace
{

void
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &emit)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        psim_fatal("cannot write %s", path.c_str());
    emit(out);
    out.flush();
    if (!out)
        psim_fatal("write to %s failed", path.c_str());
}

} // namespace

Run
runWorkload(const std::string &workload_name, const MachineConfig &cfg,
            const RunOptions &opts)
{
    const ObservabilityOptions &obs = opts.obs;
    psim_assert(obs.sampleCsvPrefix.empty() || obs.sampleInterval > 0,
            "sampler CSV without a sample interval");
    auto outPath = [&opts](const std::string &prefix, const char *ext) {
        return opts.cell.empty() ? prefix : prefix + opts.cell + ext;
    };

    Run run;
    run.machine = std::make_unique<Machine>(cfg);
    run.workload = makeWorkload(workload_name, opts.scale);
    if (!opts.tracePath.empty()) {
        run.trace = std::make_unique<TraceWriter>(opts.tracePath);
        run.machine->enableTracing(*run.trace);
    }
    if (opts.characterize)
        run.machine->enableCharacterizers();
    if (obs.sampleInterval > 0)
        run.machine->enableSampling(obs.sampleInterval);
    if (!obs.chromeTracePrefix.empty())
        run.machine->enableChromeTrace(obs.chromeStart, obs.chromeEnd);
    run.workload->attach(*run.machine);
    run.machine->run(opts.limit);
    run.finished = run.machine->allFinished();
    if (run.finished) {
        run.verified = run.workload->verify(*run.machine);
        run.machine->checkCoherenceInvariants();
    }
    if (run.trace)
        run.trace->close();
    run.metrics = run.machine->metrics();

    const Machine &m = *run.machine;
    if (!obs.statsJsonPrefix.empty()) {
        writeFile(outPath(obs.statsJsonPrefix, ".json"),
                [&m](std::ostream &os) { m.dumpStatsJson(os); });
    }
    if (!obs.sampleCsvPrefix.empty()) {
        writeFile(outPath(obs.sampleCsvPrefix, ".csv"),
                [&m](std::ostream &os) { m.sampler()->dumpCsv(os); });
    }
    if (!obs.chromeTracePrefix.empty()) {
        writeFile(outPath(obs.chromeTracePrefix, ".json"),
                [&m](std::ostream &os) { m.chromeTracer()->write(os); });
    }
    return run;
}

bool
ObservabilityOptions::parseArg(int argc, char **argv, int *i)
{
    std::string arg = argv[*i];
    auto value = [&](const char *flag) {
        if (*i + 1 >= argc)
            psim_fatal("%s needs a value", flag);
        return std::string(argv[++*i]);
    };
    if (arg == "--stats-json") {
        statsJsonPrefix = value("--stats-json");
        return true;
    }
    if (arg == "--sample-csv") {
        sampleCsvPrefix = value("--sample-csv");
        return true;
    }
    if (arg == "--chrome-trace") {
        chromeTracePrefix = value("--chrome-trace");
        return true;
    }
    if (arg == "--sample-interval") {
        sampleInterval = parseTickFlag("--sample-interval",
                                       value("--sample-interval"));
        if (sampleInterval == 0)
            psim_fatal("--sample-interval must be a positive tick count");
        return true;
    }
    if (arg == "--chrome-window") {
        std::string v = value("--chrome-window");
        std::size_t colon = v.find(':');
        if (colon == std::string::npos)
            psim_fatal("--chrome-window wants START:END ticks");
        chromeStart = parseTickFlag("--chrome-window START",
                                    v.substr(0, colon));
        std::string end = v.substr(colon + 1);
        chromeEnd = end.empty()
                ? kTickNever
                : parseTickFlag("--chrome-window END", end);
        if (chromeEnd < chromeStart)
            psim_fatal("--chrome-window END precedes START");
        return true;
    }
    return false;
}

void
ObservabilityOptions::validate() const
{
    if (!sampleCsvPrefix.empty() && sampleInterval == 0)
        psim_fatal("--sample-csv needs --sample-interval");
}

} // namespace psim::apps
