/**
 * @file
 * The paper's Figure 2 example: matrix multiplication
 *
 *     for (i) for (j) for (k) C[i,j] += A[i,k] * B[k,j];
 *
 * with row-major matrices. The inner loop reads A at an 8-byte (one
 * element) stride and B at a whole-row stride, the two access regimes
 * the paper uses to introduce stride detection. This example runs the
 * kernel on the simulated 16-node machine, characterizes its miss
 * stream (like Table 2), and compares the three prefetching schemes
 * on it.
 */

#include <cstdio>
#include <string>

#include "apps/driver.hh"

using namespace psim;

int
main(int argc, char **argv)
{
    apps::RunOptions opts;
    for (int i = 1; i < argc; ++i) {
        if (!opts.obs.parseArg(argc, argv, &i)) {
            std::printf("unknown argument '%s' (this example only takes "
                        "the shared observability flags)\n", argv[i]);
            return 1;
        }
    }

    std::printf("Figure-2 matrix multiplication on the 16-node "
                "machine\n\n");

    // 1. Characterize the baseline miss stream (Table-2 methodology).
    {
        MachineConfig cfg;
        apps::RunOptions baseline = opts;
        baseline.characterize = true;
        baseline.cell = "matmul-characterize";
        apps::Run run = apps::runWorkload("matmul", cfg, baseline);
        if (!run.finished || !run.verified) {
            std::printf("baseline run failed\n");
            return 1;
        }
        auto report = run.machine->characterizer(0)->finalize();
        std::printf("baseline characterization (node 0):\n");
        std::printf("  read misses:               %llu\n",
                    static_cast<unsigned long long>(report.totalMisses));
        std::printf("  misses in stride sequences: %.1f%%\n",
                    100.0 * report.strideFraction);
        std::printf("  average sequence length:    %.1f\n",
                    report.avgSequenceLength);
        std::printf("  strides (blocks):           ");
        for (std::size_t i = 0; i < report.topStrides.size() && i < 3;
             ++i) {
            std::printf("%lld (%.0f%%)  ",
                        static_cast<long long>(report.topStrides[i].first),
                        100.0 * report.topStrides[i].second);
        }
        std::printf("\n\n");
    }

    // 2. Compare the schemes.
    std::printf("%-10s %12s %12s %10s\n", "scheme", "read misses",
                "read stall", "pf eff");
    double base_misses = 0, base_stall = 0;
    for (const char *scheme : {"none", "idet", "ddet", "seq"}) {
        MachineConfig cfg;
        cfg.prefetch.scheme = parseScheme(scheme);
        opts.cell = std::string("matmul-") + scheme;
        apps::Run run = apps::runWorkload("matmul", cfg, opts);
        if (!run.finished || !run.verified) {
            std::printf("%s run failed\n", scheme);
            return 1;
        }
        if (base_misses == 0) {
            base_misses = run.metrics.readMisses;
            base_stall = run.metrics.readStall;
        }
        std::printf("%-10s %11.0f%% %11.0f%% %s\n", scheme,
                    100.0 * run.metrics.readMisses / base_misses,
                    100.0 * run.metrics.readStall / base_stall,
                    fmtEff(run.metrics.prefetchEfficiency(), 10).c_str());
    }
    std::printf("\nA row of A spans consecutive blocks (sequential "
                "prefetching covers it);\na column of B strides one row "
                "per access (stride detection needed).\n");
    return 0;
}
