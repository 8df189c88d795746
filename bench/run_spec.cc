/**
 * @file
 * Generic spec runner: `run_spec --spec NAME|PATH [flags]` executes
 * any psim-spec-v1 experiment spec, prints its report, and writes the
 * canonical psim-results-v1 document.
 */

#include "spec_main.hh"

int
main(int argc, char **argv)
{
    return psim::bench::runSpecMain(argc, argv);
}
