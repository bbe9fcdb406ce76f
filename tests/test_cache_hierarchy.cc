/** @file Unit tests for the on-chip cache hierarchy. */

#include <gtest/gtest.h>

#include "cache/cache_hierarchy.hh"

using namespace bear;

namespace
{

HierarchyConfig
smallConfig()
{
    HierarchyConfig config;
    config.l3.capacityBytes = (64 * kLineSize).count();
    config.l3.ways = 4;
    return config;
}

} // namespace

TEST(CacheHierarchy, LlcModeMissesReachL4)
{
    CacheHierarchy h(smallConfig());
    const HierarchyOutcome miss = h.access(0, 100, false);
    EXPECT_TRUE(miss.llcMiss);
    EXPECT_EQ(miss.onChipLatency, h.llc().config().latency);

    h.fillLlc(100, false, true);
    const HierarchyOutcome hit = h.access(0, 100, false);
    EXPECT_FALSE(hit.llcMiss);
}

TEST(CacheHierarchy, FillReturnsDirtyVictimAsWriteback)
{
    HierarchyConfig config = smallConfig();
    config.l3.capacityBytes = (2 * kLineSize).count();
    config.l3.ways = 2; // one set
    CacheHierarchy h(config);
    h.fillLlc(10, true, true); // dirty, present in L4
    h.fillLlc(20, false, false);
    const std::optional<WritebackRequest> wb = h.fillLlc(30, false, false);
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(wb->line, 10u);
    EXPECT_TRUE(wb->dcpPresent);
}

TEST(CacheHierarchy, CleanVictimGeneratesNoWriteback)
{
    HierarchyConfig config = smallConfig();
    config.l3.capacityBytes = (2 * kLineSize).count();
    config.l3.ways = 2;
    CacheHierarchy h(config);
    h.fillLlc(10, false, false);
    h.fillLlc(20, false, false);
    EXPECT_FALSE(h.fillLlc(30, false, false).has_value());
}

TEST(CacheHierarchy, DramCacheEvictionClearsPresence)
{
    CacheHierarchy h(smallConfig());
    h.fillLlc(100, false, true);
    EXPECT_TRUE(h.llc().presence(100));
    h.onDramCacheEviction(100);
    EXPECT_FALSE(h.llc().presence(100));
    // The line itself stays resident (non-inclusive flow).
    EXPECT_TRUE(h.llc().contains(100));
}

TEST(CacheHierarchy, BackInvalidateDropsLineEverywhere)
{
    CacheHierarchy h(smallConfig());
    h.access(0, 100, false);
    h.fillLlc(100, false, true);
    h.access(0, 100, true); // L3 hit dirties the resident copy
    EXPECT_TRUE(h.backInvalidate(100));
    EXPECT_FALSE(h.llc().contains(100));
    // A fresh access misses everywhere again.
    EXPECT_TRUE(h.access(0, 100, false).llcMiss);
}

TEST(CacheHierarchy, BackInvalidateCleanReturnsFalse)
{
    CacheHierarchy h(smallConfig());
    h.fillLlc(100, false, true);
    EXPECT_FALSE(h.backInvalidate(100));
}

TEST(CacheHierarchy, StatsReset)
{
    CacheHierarchy h(smallConfig());
    h.access(0, 1, false);
    h.resetStats();
    EXPECT_EQ(h.llc().misses(), 0u);
}
