/**
 * @file
 * Tests for the ablation/extension features: writeback-allocate, the
 * TadLayout geometry, and the alloyOverride system hook.
 */

#include <gtest/gtest.h>

#include "dramcache/alloy_cache.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "tests/test_util.hh"
#include "workloads/workload.hh"

using namespace bear;
using test::CacheHarness;

namespace
{

/** One WorkloadStream of @p benchmark per core of @p config. */
std::vector<std::unique_ptr<RefStream>>
workloadStreams(const char *benchmark, const SystemConfig &config)
{
    std::vector<std::unique_ptr<RefStream>> streams;
    for (std::uint32_t c = 0; c < config.cores; ++c) {
        streams.push_back(std::make_unique<WorkloadStream>(
            profileByName(benchmark), config.seed + 0x1000 * (c + 1),
            config.scale));
    }
    return streams;
}

} // namespace

// -------------------------------------------------------- TadLayout

TEST(TadLayout, TwentyEightTadsPerRow)
{
    TadLayout layout(1 << 20, makeCacheGeometry());
    EXPECT_EQ(layout.tadsPerRow(), Bytes{2048} / kTadSize); // 28
}

TEST(TadLayout, ConsecutiveSetsShareRowWithinBoundary)
{
    TadLayout layout(1 << 20, makeCacheGeometry());
    const DramCoord a = layout.coordOf(0);
    const DramCoord b = layout.coordOf(27);
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.row, b.row);
    const DramCoord c = layout.coordOf(28);
    EXPECT_FALSE(a.channel == c.channel && a.bank == c.bank
                 && a.row == c.row);
}

TEST(TadLayout, NeighborStopsAtRowBoundary)
{
    TadLayout layout(1 << 20, makeCacheGeometry());
    EXPECT_EQ(layout.neighborOf(0), 1u);
    EXPECT_EQ(layout.neighborOf(26), 27u);
    EXPECT_EQ(layout.neighborOf(27), layout.sets()); // row boundary
}

TEST(TadLayout, NeighborStopsAtCacheEnd)
{
    TadLayout layout(28, makeCacheGeometry());
    EXPECT_EQ(layout.neighborOf(27), 28u); // last set has no neighbour
}

TEST(TadLayout, RowsInterleaveAcrossChannels)
{
    TadLayout layout(1 << 20, makeCacheGeometry());
    const DramCoord a = layout.coordOf(0);
    const DramCoord b = layout.coordOf(28); // next row
    EXPECT_NE(a.channel, b.channel);
}

// ----------------------------------------------- writeback allocate

namespace
{

AlloyConfig
allocConfig()
{
    AlloyConfig config;
    config.capacityBytes = 8ULL << 20;
    config.cores = 2;
    config.useMapI = false;
    config.writebackAllocate = true;
    return config;
}

} // namespace

TEST(WbAllocate, WritebackMissInstallsDirtyLine)
{
    CacheHarness h;
    AlloyCache cache(allocConfig(), h.dram, h.memory, h.bloat);
    cache.writeback({555, false, 0});
    EXPECT_TRUE(cache.contains(555));
    EXPECT_TRUE(cache.isDirty(555));
    EXPECT_EQ(h.bloat.bytes(BloatCategory::WritebackFill), kTadTransfer);
    EXPECT_EQ(h.bloat.bytes(BloatCategory::WritebackProbe), kTadTransfer);
}

TEST(WbAllocate, DirtyVictimOfWritebackFillRescued)
{
    CacheHarness h;
    AlloyCache cache(allocConfig(), h.dram, h.memory, h.bloat);
    LineAddr mem_write = ~0ULL;
    cache.writeback({555, false, 0}); // dirty line in set
    h.memory.setLineWriteHook([&](LineAddr l) { mem_write = l; });
    cache.writeback({555 + cache.sets(), false, 1000}); // conflicting fill
    EXPECT_EQ(mem_write, 555u);
    EXPECT_TRUE(cache.isDirty(555 + cache.sets()));
}

TEST(WbAllocate, NoAllocateBaselineLeavesCacheUntouched)
{
    CacheHarness h;
    AlloyConfig config = allocConfig();
    config.writebackAllocate = false;
    AlloyCache cache(config, h.dram, h.memory, h.bloat);
    cache.writeback({555, false, 0});
    EXPECT_FALSE(cache.contains(555));
    EXPECT_EQ(h.bloat.bytes(BloatCategory::WritebackFill), Bytes{0});
}

// ------------------------------------------------- system override

TEST(AlloyOverride, SystemBuildsCustomConfiguration)
{
    SystemConfig config;
    config.scale = 0.015625;
    AlloyConfig alloy;
    alloy.useTtc = true;
    alloy.name = "CustomTTC";
    config.alloyOverride = alloy;

    System sys(config, workloadStreams("mcf", config));
    EXPECT_EQ(sys.dramCache().name(), "CustomTTC");
    sys.run(5000);
    sys.resetStats();
    sys.run(2000);
    EXPECT_GT(sys.stats().ipcTotal, 0.0);
}

TEST(AlloyOverride, InclusiveOverrideWiresBackInvalidation)
{
    SystemConfig config;
    config.scale = 0.015625;
    AlloyConfig alloy;
    alloy.inclusive = true;
    config.alloyOverride = alloy;

    // lbm: write-heavy, footprint far beyond the 16 MB cache.
    System sys(config, workloadStreams("lbm", config));
    sys.run(20000);
    sys.resetStats();
    sys.run(10000);
    // Inclusion: never any Writeback Probe bandwidth.
    EXPECT_EQ(sys.bloat().bytes(BloatCategory::WritebackProbe), Bytes{0});
}

TEST(AlloyOverride, NamedDesignConfigReproducesTheNamedDesign)
{
    // The ablations compare overrides against the named designs, so an
    // override equal to BEAR's own config must be BEAR, seed included:
    // the system seeds an override as makeAlloyConfig seeds BEAR.
    SystemConfig named;
    named.scale = 0.015625;
    named.design = DesignKind::Bear;
    SystemConfig overridden = named;
    overridden.alloyOverride =
        makeAlloyConfig(DesignKind::Bear, DesignParams{});
    ASSERT_NE(overridden.alloyOverride->seed, named.seed);

    auto report = [](const SystemConfig &config) {
        System sys(config, workloadStreams("mcf", config));
        sys.run(20000);
        sys.resetStats();
        sys.run(10000);
        RunResult result;
        result.workload = "mcf";
        result.design = sys.dramCache().name();
        result.stats = sys.stats();
        return runResultToJson(result);
    };
    EXPECT_EQ(report(named), report(overridden));
}

// --------------------------------------------------- mix-mode runs

TEST(MixIntegration, WeightedSpeedupEndToEnd)
{
    RunnerOptions options;
    options.scale = 0.015625;
    options.warmupRefsPerCore = 20000;
    options.measureRefsPerCore = 10000;
    options.workers = 1;
    Runner runner(options);

    const MixSpec &mix = tableThreeMixes()[3]; // MIX4: 4H+4M
    const RunResult alloy = runner.runMix(DesignKind::Alloy, mix);
    const RunResult bear_r = runner.runMix(DesignKind::Bear, mix);
    const double ns = normalizedSpeedup(alloy, bear_r);
    // Sanity band: BEAR should be within a plausible range of Alloy.
    EXPECT_GT(ns, 0.8);
    EXPECT_LT(ns, 1.5);
}
