/**
 * @file
 * End-to-end application tests: every workload must run to completion
 * on the simulated machine, produce numerically correct results
 * (verified against a native reference), and leave the coherence
 * protocol in a consistent state -- under every prefetching scheme.
 */

#include <gtest/gtest.h>

#include "apps/ctx.hh"
#include "apps/driver.hh"

using namespace psim;
using namespace psim::apps;

namespace
{

MachineConfig
smallMachine(PrefetchScheme scheme = PrefetchScheme::None)
{
    MachineConfig cfg;
    cfg.numProcs = 4; // keep unit runs quick; 16-proc runs below
    cfg.prefetch.scheme = scheme;
    return cfg;
}

} // namespace

class AppCorrectness
    : public ::testing::TestWithParam<
              std::tuple<const char *, PrefetchScheme>>
{
};

TEST_P(AppCorrectness, RunsAndVerifies)
{
    auto [name, scheme] = GetParam();
    psim::apps::Run run = runWorkload(name, smallMachine(scheme));
    ASSERT_TRUE(run.finished) << name << " did not finish";
    EXPECT_TRUE(run.verified) << name << " computed a wrong result";
    EXPECT_GT(run.metrics.reads, 0.0);
    EXPECT_GT(run.metrics.readMisses, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllAppsAllSchemes, AppCorrectness,
        ::testing::Combine(
                ::testing::Values("mp3d", "cholesky", "water", "lu",
                                  "ocean", "pthor", "matmul", "fft",
                                  "radix", "barnes"),
                ::testing::Values(PrefetchScheme::None,
                                  PrefetchScheme::Sequential,
                                  PrefetchScheme::IDet,
                                  PrefetchScheme::DDet,
                                  PrefetchScheme::Adaptive,
                                  PrefetchScheme::IDetLookahead)));

TEST(Apps, SixteenProcessorLuVerifies)
{
    MachineConfig cfg; // the paper's full 16-node machine
    psim::apps::Run run = runWorkload("lu", cfg);
    ASSERT_TRUE(run.finished);
    EXPECT_TRUE(run.verified);
    // Every processor did real work.
    for (NodeId n = 0; n < 16; ++n)
        EXPECT_GT(run.machine->node(n).cpu().loads.value(), 0.0);
}

TEST(Apps, DeterministicAcrossRuns)
{
    MachineConfig cfg = smallMachine(PrefetchScheme::Sequential);
    psim::apps::Run a = runWorkload("ocean", cfg);
    psim::apps::Run b = runWorkload("ocean", cfg);
    ASSERT_TRUE(a.finished && b.finished);
    EXPECT_EQ(a.metrics.execTicks, b.metrics.execTicks);
    EXPECT_DOUBLE_EQ(a.metrics.readMisses, b.metrics.readMisses);
    EXPECT_DOUBLE_EQ(a.metrics.pfIssued, b.metrics.pfIssued);
    EXPECT_DOUBLE_EQ(a.metrics.flits, b.metrics.flits);
}

TEST(Apps, FiniteSlcRunsVerify)
{
    MachineConfig cfg = smallMachine(PrefetchScheme::Sequential);
    cfg.slcSize = 16384;
    for (const char *name : {"lu", "ocean", "mp3d"}) {
        psim::apps::Run run = runWorkload(name, cfg);
        ASSERT_TRUE(run.finished) << name;
        EXPECT_TRUE(run.verified) << name;
        EXPECT_GT(run.metrics.missesReplacement, 0.0)
                << name << ": a 16 KB SLC must replace blocks";
    }
}

TEST(Apps, ScaledDataSetsGrowTheProblem)
{
    MachineConfig cfg = smallMachine();
    RunOptions small_opts;
    RunOptions big_opts;
    big_opts.scale = 2;
    psim::apps::Run small = runWorkload("lu", cfg, small_opts);
    psim::apps::Run big = runWorkload("lu", cfg, big_opts);
    ASSERT_TRUE(small.finished && big.finished);
    EXPECT_TRUE(big.verified);
    EXPECT_GT(big.metrics.reads, small.metrics.reads * 2);
}

TEST(Apps, PaperWorkloadListIsComplete)
{
    const auto &names = paperWorkloads();
    ASSERT_EQ(names.size(), 6u);
    EXPECT_EQ(names[0], "mp3d");
    EXPECT_EQ(names[5], "pthor");
    for (const auto &n : names)
        EXPECT_NE(makeWorkload(n), nullptr);
}

TEST(Apps, LocksAreActuallyUsedByPthor)
{
    MachineConfig cfg = smallMachine();
    psim::apps::Run run = runWorkload("pthor", cfg);
    ASSERT_TRUE(run.finished);
    double locks = 0;
    for (NodeId n = 0; n < cfg.numProcs; ++n)
        locks += run.machine->node(n).cpu().locks.value();
    EXPECT_GT(locks, 0.0);
}

TEST(Apps, SitePcDependsOnBasenameLineAndColumnOnly)
{
    // Two checkouts of the same source give the same PC for a site.
    EXPECT_EQ(pcOf("/home/a/psim/src/apps/lu.cc", 42, 9),
              pcOf("/tmp/build-b/src/apps/lu.cc", 42, 9));
    EXPECT_EQ(pcOf("lu.cc", 42, 9),
              pcOf("/tmp/build-b/src/apps/lu.cc", 42, 9));
    EXPECT_NE(pcOf("lu.cc", 42, 9), pcOf("lu.cc", 43, 9));
    EXPECT_NE(pcOf("lu.cc", 42, 9), pcOf("lu.cc", 42, 10));
    EXPECT_NE(pcOf("lu.cc", 42, 9), pcOf("ocean.cc", 42, 9));
    EXPECT_EQ(pcOf("lu.cc", 42, 9) % 4, 0u);
}

TEST(AppsDeath, UnknownWorkloadNameIsFatal)
{
    EXPECT_EXIT(makeWorkload("nosuchapp"), ::testing::ExitedWithCode(1),
            "unknown workload");
}
