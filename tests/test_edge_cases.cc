/**
 * @file
 * Edge-case and corner-path tests collected across modules: write
 * queue backstops, tiny-footprint workload clamping, alternative
 * replacement policies in caches, BAB monitor behaviour through the
 * full design, and generated-mix structure.
 */

#include <gtest/gtest.h>

#include "cache/sram_cache.hh"
#include "dramcache/alloy_cache.hh"
#include "mem/dram_channel.hh"
#include "sim/system.hh"
#include "tests/test_util.hh"
#include <algorithm>

#include "workloads/mixes.hh"
#include "workloads/workload.hh"

using namespace bear;
using test::CacheHarness;

TEST(DramChannelEdge, BackstopDrainsFutureStampedOverflow)
{
    WriteQueuePolicy wq;
    DramChannel ch(DramTiming{}, makeCacheGeometry(), wq);
    // Flood with future-stamped writes and no reads: the structural
    // backstop must keep the queue bounded.
    for (std::uint32_t i = 0; i < 16 * wq.drainHigh; ++i)
        ch.write(1000000 + i, i % 16, i, kLineSize);
    EXPECT_LT(ch.writeQueueDepth(), 4 * wq.drainHigh);
}

TEST(DramChannelEdge, ZeroByteAccessIsRejectedByBurstMath)
{
    DramChannel ch(DramTiming{}, makeCacheGeometry(), {});
    // A 1-byte access still occupies one bus beat.
    const DramResult r = ch.read(0, 0, 0, Bytes{1});
    EXPECT_EQ(r.dataReady, 36u + 36u + 1u);
}

TEST(BusTimelineEdge, PruneKeepsDistantFutureReservations)
{
    BusTimeline bus;
    bus.reserve(1000000, 5); // far future
    // Advancing the watermark by a request in the present must not
    // drop the future interval.
    bus.reserve(100, 5);
    EXPECT_EQ(bus.reserve(1000000, 5), 1000005u);
}

TEST(WorkloadEdge, TinyFootprintClampsRegions)
{
    WorkloadProfile p = profileByName("sphinx3");
    p.footprintBytes = 1ULL << 20; // 1 MB: smaller than hot+warm
    WorkloadStream s(p, 1, 1.0);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(lineOf(s.next().vaddr), s.footprintLines());
}

TEST(WorkloadEdge, ScaleOneKeepsTableFootprint)
{
    const WorkloadProfile &p = profileByName("libquantum");
    WorkloadStream s(p, 1, 1.0);
    EXPECT_EQ(s.footprintLines(), Bytes{p.footprintBytes} / kLineSize);
}

TEST(WorkloadEdgeDeath, OverfullProbabilitiesRejected)
{
    WorkloadProfile p = profileByName("mcf");
    p.hotProb = 0.5;
    p.warmProb = 0.5;
    p.reuseProb = 0.5;
    EXPECT_DEATH(WorkloadStream(p, 1, 1.0), "probabilities");
}

TEST(MixesEdge, GeneratedMixesKeepClassStructure)
{
    // Generated mixes beyond Table 3 must respect their nH+mM label.
    // (Table 3 itself is reproduced verbatim from the paper, whose
    // class labels count sphinx3 as medium even though Table 2 lists
    // it as high intensive — we do not "fix" the paper's labels.)
    const std::vector<std::string> high = {
        "mcf", "lbm", "soplex", "milc", "libquantum",
        "omnetpp", "bwaves", "gcc", "sphinx3"};
    const auto &mixes = allMixes();
    for (std::size_t i = tableThreeMixes().size(); i < mixes.size();
         ++i) {
        const MixSpec &mix = mixes[i];
        int h = 0;
        for (const auto &b : mix.benchmarks) {
            h += std::find(high.begin(), high.end(), b) != high.end()
                ? 1
                : 0;
        }
        // Parse the leading number of the class label.
        const int expected = std::stoi(mix.klass);
        EXPECT_EQ(h, expected) << mix.name << " labelled " << mix.klass;
    }
}

TEST(SramCacheEdge, RandomPolicyStillCorrect)
{
    SramCacheConfig config;
    config.capacityBytes = (8 * kLineSize).count();
    config.ways = 4;
    config.replacement = TagRepl::Random;
    SramCache cache(config);
    for (LineAddr l = 0; l < 100; ++l)
        cache.fill(l, false, false);
    // Exactly capacity lines valid; hits behave.
    EXPECT_EQ(cache.linesValid(), 8u);
    std::uint64_t resident = 0;
    for (LineAddr l = 0; l < 100; ++l)
        resident += cache.contains(l) ? 1 : 0;
    EXPECT_EQ(resident, 8u);
}

TEST(SramCacheEdge, NruPolicyStillCorrect)
{
    SramCacheConfig config;
    config.capacityBytes = (8 * kLineSize).count();
    config.ways = 4;
    config.replacement = TagRepl::Nru;
    SramCache cache(config);
    for (LineAddr l = 0; l < 64; ++l) {
        cache.fill(l, false, false);
        cache.access(l, false);
    }
    EXPECT_EQ(cache.linesValid(), 8u);
}

TEST(AlloyEdge, BabMonitorSetsBehaveThroughDesign)
{
    CacheHarness h;
    AlloyConfig config;
    config.capacityBytes = 4ULL << 20;
    config.cores = 2;
    config.useMapI = false;
    config.fillPolicy = FillPolicy::BandwidthAware;
    AlloyCache cache(config, h.dram, h.memory, h.bloat);
    const auto *bab = cache.bab();

    // Find a baseline-monitor set: lines mapping there must always
    // fill, no matter how many misses occur.
    std::uint64_t base_set = ~0ULL;
    for (std::uint64_t s = 0; s < cache.sets(); ++s) {
        if (bab->roleOf(s)
            == BandwidthAwareBypass::SetRole::FollowBaseline) {
            base_set = s;
            break;
        }
    }
    ASSERT_NE(base_set, ~0ULL);
    Cycle t = 0;
    for (int i = 0; i < 50; ++i) {
        const LineAddr line = base_set + i * cache.sets();
        const auto o = cache.read(t, line, 0x400000, 0);
        EXPECT_TRUE(o.presentAfter) << "baseline monitor set bypassed";
        t += 1000;
    }
}

TEST(AlloyEdge, ZeroProbabilityBypassEqualsBaseline)
{
    CacheHarness alloy_h, pb_h;
    AlloyConfig base_config;
    base_config.capacityBytes = 4ULL << 20;
    base_config.useMapI = false;
    AlloyConfig pb_config = base_config;
    pb_config.fillPolicy = FillPolicy::Probabilistic;
    pb_config.bypassProbability = 0.0;
    AlloyCache a(base_config, alloy_h.dram, alloy_h.memory,
                 alloy_h.bloat);
    AlloyCache b(pb_config, pb_h.dram, pb_h.memory, pb_h.bloat);
    Rng rng(77);
    Cycle t = 0;
    for (int i = 0; i < 5000; ++i) {
        const LineAddr line = rng.below(1 << 18);
        EXPECT_EQ(a.read(t, line, 0, 0).hit(), b.read(t, line, 0, 0).hit());
        t += 100;
    }
    EXPECT_EQ(a.demandHits(), b.demandHits());
    EXPECT_EQ(alloy_h.bloat.totalBytes(), pb_h.bloat.totalBytes());
}

TEST(SystemEdge, SingleCoreSystemRuns)
{
    SystemConfig config;
    config.cores = 1;
    config.scale = 0.015625;
    std::vector<std::unique_ptr<RefStream>> streams;
    streams.push_back(std::make_unique<WorkloadStream>(
        profileByName("wrf"), 1, config.scale));
    System sys(config, std::move(streams));
    sys.run(20000);
    sys.resetStats();
    sys.run(10000);
    const SystemStats s = sys.stats();
    EXPECT_EQ(s.ipcPerCore.size(), 1u);
    EXPECT_GT(s.ipcTotal, 0.0);
}

TEST(SystemEdgeDeath, StreamCountMustMatchCores)
{
    SystemConfig config;
    config.cores = 8;
    std::vector<std::unique_ptr<RefStream>> streams; // empty
    EXPECT_DEATH(System(config, std::move(streams)), "one stream");
}
