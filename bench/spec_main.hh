/**
 * @file
 * Entry point of bench/run_spec.
 *
 * runSpecMain() parses the common bench flags, loads a psim-spec-v1
 * experiment spec (by name from the spec directory, or by path), runs
 * it through spec::runSpec(), prints the report renderer's table on
 * stdout, and writes the canonical psim-results-v1 document (default
 * BENCH_<name>.json, override with --json/--out).
 *
 * The spec directory is $PSIM_SPEC_DIR when set, else the repository's
 * specs/ directory baked in at configure time (PSIM_SPEC_DIR compile
 * definition).
 */

#ifndef PSIM_BENCH_SPEC_MAIN_HH
#define PSIM_BENCH_SPEC_MAIN_HH

namespace psim::bench
{

/** Run the spec named by --spec. Returns the process exit code. */
int runSpecMain(int argc, char **argv);

} // namespace psim::bench

#endif // PSIM_BENCH_SPEC_MAIN_HH
