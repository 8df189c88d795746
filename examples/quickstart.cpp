/**
 * @file
 * Quickstart: build the paper's 16-node machine, run the LU workload
 * under each prefetching scheme, and print the headline metrics.
 *
 * Usage: quickstart [workload] [scale] [observability flags]
 *
 * The shared observability flags (--stats-json PREFIX,
 * --sample-interval N, --sample-csv PREFIX, --chrome-trace PREFIX,
 * --chrome-window A:B) write per-scheme machine-readable output, e.g.
 * `quickstart lu 1 --stats-json out/` produces out/lu-seq.json etc.
 */

#include <cstdio>
#include <string>

#include "apps/driver.hh"
#include "sim/parse.hh"

using namespace psim;

int
main(int argc, char **argv)
{
    std::string workload = "lu";
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
    opts.obs.validate();

    std::printf("workload: %s (scale %u), 16 processors, 32 B blocks, "
                "infinite SLC\n\n", workload.c_str(), opts.scale);
    std::printf("%-10s %12s %12s %12s %10s %12s\n", "scheme",
                "read misses", "read stall", "exec ticks", "pf eff",
                "net flits");

    double base_misses = 0, base_stall = 0;
    for (const char *scheme :
         {"none", "idet", "ddet", "seq", "adaptive", "idet-la"}) {
        MachineConfig cfg;
        cfg.prefetch.scheme = parseScheme(scheme);
        opts.cell = workload + "-" + scheme;
        apps::Run run = apps::runWorkload(workload, cfg, opts);
        if (!run.finished) {
            std::printf("%-10s DID NOT FINISH\n", scheme);
            return 1;
        }
        if (!run.verified) {
            std::printf("%-10s FAILED VERIFICATION\n", scheme);
            return 1;
        }
        const RunMetrics &mx = run.metrics;
        if (std::string(scheme) == "none") {
            base_misses = mx.readMisses;
            base_stall = mx.readStall;
        }
        std::printf("%-10s %8.0f (%3.0f%%) %6.0f (%3.0f%%) %12llu "
                    "%s %12.0f\n",
                    scheme, mx.readMisses,
                    100.0 * mx.readMisses / base_misses, mx.readStall,
                    100.0 * mx.readStall / base_stall,
                    static_cast<unsigned long long>(mx.execTicks),
                    fmtEff(mx.prefetchEfficiency(), 9).c_str(),
                    mx.flits);
    }
    std::printf("\nall runs verified against the native reference.\n");
    return 0;
}
