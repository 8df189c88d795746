/**
 * @file
 * Scheme shootout: run one application across prefetching schemes,
 * degrees and cache sizes from the command line -- the knobs of the
 * paper's whole evaluation in one binary.
 *
 * Usage: scheme_shootout [workload] [scale] [observability flags]
 *
 * The shared observability flags (--stats-json PREFIX and friends)
 * write per-configuration machine-readable output.
 *
 * Sweeps {baseline, i-det, d-det, seq} x degree {1,4} x SLC
 * {infinite, 16 KB} and prints a comparison grid.
 */

#include <cstdio>
#include <string>

#include "apps/driver.hh"
#include "sim/parse.hh"

using namespace psim;

int
main(int argc, char **argv)
{
    std::string workload = "ocean";
    apps::RunOptions opts;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (opts.obs.parseArg(argc, argv, &i))
            continue;
        if (positional == 0) {
            workload = argv[i];
        } else if (positional == 1) {
            opts.scale = parseUnsignedFlag("scale", argv[i]);
            if (opts.scale == 0)
                psim_fatal("scale must be >= 1");
        }
        ++positional;
    }

    std::printf("%s (scale %u) across the paper's design space\n\n",
                workload.c_str(), opts.scale);
    std::printf("%-9s %4s %9s | %12s %12s %10s %12s %12s\n", "scheme",
                "d", "SLC", "read misses", "read stall", "pf eff",
                "net flits", "exec ticks");

    for (unsigned slc : {0u, 16384u}) {
        for (const char *scheme : {"none", "idet", "ddet", "seq"}) {
            for (unsigned d : {1u, 4u}) {
                if (std::string(scheme) == "none" && d != 1)
                    continue;
                MachineConfig cfg;
                cfg.prefetch.scheme = parseScheme(scheme);
                cfg.prefetch.degree = d;
                cfg.slcSize = slc;
                opts.cell = workload + "-" + scheme + "-d" +
                            std::to_string(d) + (slc ? "-16KB" : "-inf");
                apps::Run run = apps::runWorkload(workload, cfg, opts);
                if (!run.finished || !run.verified) {
                    std::printf("%-9s %4u %9s | FAILED\n", scheme, d,
                                slc ? "16KB" : "inf");
                    return 1;
                }
                std::printf("%-9s %4u %9s | %12.0f %12.0f %s "
                            "%12.0f %12llu\n",
                            scheme, d, slc ? "16KB" : "inf",
                            run.metrics.readMisses,
                            run.metrics.readStall,
                            fmtEff(run.metrics.prefetchEfficiency(),
                                   10).c_str(),
                            run.metrics.flits,
                            static_cast<unsigned long long>(
                                    run.metrics.execTicks));
            }
        }
        std::printf("\n");
    }
    std::printf("all runs verified against native references.\n");
    return 0;
}
