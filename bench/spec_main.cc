#include "spec_main.hh"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hh"
#include "render.hh"
#include "sim/spec.hh"

namespace psim::bench
{

namespace
{

/** A path (contains '/' or ends in .json) passes through verbatim. */
std::string
resolveSpecPath(const std::string &name_or_path)
{
    if (name_or_path.find('/') != std::string::npos)
        return name_or_path;
    if (name_or_path.size() > 5 &&
        name_or_path.compare(name_or_path.size() - 5, 5, ".json") == 0)
        return name_or_path;
    const char *dir = std::getenv("PSIM_SPEC_DIR");
#ifdef PSIM_SPEC_DIR
    if (!dir || !*dir)
        dir = PSIM_SPEC_DIR;
#endif
    if (!dir || !*dir)
        psim_fatal("cannot resolve spec '%s': set PSIM_SPEC_DIR or pass "
                   "a path", name_or_path.c_str());
    return std::string(dir) + "/" + name_or_path + ".json";
}

void
writeDocument(const std::string &path, const std::string &doc)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        psim_fatal("cannot write %s", path.c_str());
    std::fputs(doc.c_str(), f);
    std::fclose(f);
}

} // namespace

int
runSpecMain(int argc, char **argv)
{
    BenchOptions opt = parseBenchArgs(argc, argv);
    if (opt.spec.empty())
        psim_fatal("--spec NAME|PATH is required (known reports: %s)",
                   knownReports().c_str());

    spec::Spec sp = spec::loadSpec(resolveSpecPath(opt.spec));
    sp.overrideApps(opt.apps);

    Renderer render = findRenderer(sp.report);
    if (!render)
        psim_fatal("spec '%s': unknown report '%s' (known: %s)",
                   sp.name.c_str(), sp.report.c_str(),
                   knownReports().c_str());

    spec::ExecOptions exec;
    exec.jobs = opt.jobs;
    exec.shards = opt.shards;
    exec.procs = opt.procs;
    exec.obs = opt.obs;

    spec::Results results = spec::runSpec(sp, exec);
    render(sp, results);

    const std::string out = opt.jsonPath.empty()
            ? "BENCH_" + sp.name + ".json"
            : opt.jsonPath;
    writeDocument(out, spec::resultsDocument(sp, exec, results));

    std::fprintf(stderr, "grid wall-clock: %.2fs with %u jobs "
                 "(results: %s)\n", results.wallSeconds, results.jobs,
                 out.c_str());
    return 0;
}

} // namespace psim::bench
