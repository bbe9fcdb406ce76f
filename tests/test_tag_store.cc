/**
 * @file
 * Unit tests for the shared SoA TagStore (DESIGN.md §14): probe /
 * install / evict / invalidate / touch semantics, the replacement
 * plane contracts each ported design relies on, the 8-bit LRU stamps
 * against a 64-bit global-clock reference, the metadata planes, the
 * 32-bit tag plane against the 64-bit one, and the cache-line
 * alignment guarantee of every plane.
 */

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "dramcache/tag_store.hh"

using namespace bear;

namespace
{

TagStore
makeStore(std::uint64_t sets, std::uint32_t ways, TagRepl repl,
          std::uint32_t metaPlanes = 0)
{
    return TagStore(TagStoreConfig{sets, ways, repl, 1, metaPlanes});
}

/**
 * The LRU plane as it was before per-set stamps: one 64-bit stamp per
 * entry from a store-wide clock that starts at 1 (0 = never touched,
 * or invalidated), the lowest invalid way first, else a strict-`<`
 * scan from way 0.
 */
class GlobalClockLru
{
  public:
    GlobalClockLru(std::uint64_t sets, std::uint32_t ways)
        : ways_(ways), stamp_(sets * ways, 0), valid_(sets * ways, false)
    {
    }

    void install(std::uint64_t set, std::uint32_t way)
    {
        valid_[set * ways_ + way] = true;
    }

    void evict(std::uint64_t set, std::uint32_t way)
    {
        valid_[set * ways_ + way] = false;
    }

    void
    invalidate(std::uint64_t set, std::uint32_t way)
    {
        evict(set, way);
        stamp_[set * ways_ + way] = 0;
    }

    void touch(std::uint64_t set, std::uint32_t way)
    {
        stamp_[set * ways_ + way] = tick_++;
    }

    std::uint64_t stampAt(std::uint64_t set, std::uint32_t way) const
    {
        return stamp_[set * ways_ + way];
    }

    std::uint32_t
    victimWay(std::uint64_t set) const
    {
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (!valid_[set * ways_ + w])
                return w;
        std::uint32_t best = 0;
        std::uint64_t oldest = ~0ULL;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (stamp_[set * ways_ + w] < oldest) {
                oldest = stamp_[set * ways_ + w];
                best = w;
            }
        }
        return best;
    }

  private:
    std::uint32_t ways_;
    std::vector<std::uint64_t> stamp_;
    std::vector<bool> valid_;
    std::uint64_t tick_ = 1;
};

/** Ways from oldest to newest stamp; equal stamps (0) in way order. */
template <typename StampOf>
std::vector<std::uint32_t>
ageOrder(std::uint32_t ways, StampOf stamp_of)
{
    std::vector<std::uint32_t> order(ways);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return stamp_of(a) < stamp_of(b);
                     });
    return order;
}

} // namespace

TEST(TagStore, StartsEmpty)
{
    TagStore store = makeStore(8, 4, TagRepl::None);
    EXPECT_EQ(store.sets(), 8u);
    EXPECT_EQ(store.ways(), 4u);
    EXPECT_EQ(store.validCount(), 0u);
    for (std::uint64_t set = 0; set < 8; ++set) {
        EXPECT_EQ(store.validMask(set), 0u);
        EXPECT_FALSE(store.probe(set, 0).hit);
    }
}

TEST(TagStore, ProbeFindsInstalledTag)
{
    TagStore store = makeStore(4, 4, TagRepl::None);
    store.install(2, 1, 0xBEEF);
    const TagProbe hit = store.probe(2, 0xBEEF);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.way, 1u);
    // Same tag in another set stays invisible.
    EXPECT_FALSE(store.probe(1, 0xBEEF).hit);
    // A probe that misses reports way == ways().
    const TagProbe miss = store.probe(2, 0xF00D);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.way, store.ways());
}

TEST(TagStore, ProbeIgnoresInvalidWaysAndPrefersLowest)
{
    TagStore store = makeStore(2, 4, TagRepl::None);
    // A stale matching tag in way 0 (installed then evicted) must not
    // hit; a duplicate valid tag resolves to the lowest way, exactly
    // as the historic way-order scans did.
    store.install(0, 0, 7);
    store.evict(0, 0);
    store.install(0, 2, 7);
    store.install(0, 3, 7);
    const TagProbe probe = store.probe(0, 7);
    EXPECT_TRUE(probe.hit);
    EXPECT_EQ(probe.way, 2u);
}

TEST(TagStore, InstallSeedsDirtyAndClearsFlagAndMeta)
{
    TagStore store = makeStore(2, 2, TagRepl::None, 2);
    store.install(1, 0, 42, /*dirty=*/true);
    EXPECT_TRUE(store.validAt(1, 0));
    EXPECT_TRUE(store.dirtyAt(1, 0));
    store.setFlag(1, 0, true);
    store.setMeta(1, 0, 0, 0x1111);
    store.setMeta(1, 0, 1, 0x2222);

    // Reinstalling the way resets dirty, flag and metadata.
    store.install(1, 0, 43);
    EXPECT_EQ(store.tagAt(1, 0), 43u);
    EXPECT_FALSE(store.dirtyAt(1, 0));
    EXPECT_FALSE(store.flagAt(1, 0));
    EXPECT_EQ(store.meta(1, 0, 0), 0u);
    EXPECT_EQ(store.meta(1, 0, 1), 0u);
}

TEST(TagStore, EvictKeepsStaleTagAndReplacementState)
{
    TagStore store = makeStore(1, 2, TagRepl::Lru);
    store.install(0, 1, 6);
    store.touch(0, 1);
    store.install(0, 0, 5, /*dirty=*/true);
    store.touch(0, 0); // way 0 is now the newest touch

    store.evict(0, 0);
    EXPECT_FALSE(store.validAt(0, 0));
    EXPECT_FALSE(store.dirtyAt(0, 0));
    // The stale tag survives eviction (NTC neighbour-capture contract).
    EXPECT_EQ(store.tagAt(0, 0), 5u);

    // The way's LRU age also survives (sector-cache contract): after a
    // refill without a touch, way 1 — genuinely older — is the victim.
    // Had evict() reset way 0's age to zero, way 0 would be chosen.
    store.install(0, 0, 7);
    EXPECT_EQ(store.victimWay(0), 1u) << "evicted way kept its age";
}

TEST(TagStore, InvalidateResetsLruAge)
{
    TagStore store = makeStore(1, 2, TagRepl::Lru);
    store.install(0, 0, 5);
    store.touch(0, 0);
    store.install(0, 1, 6);
    store.touch(0, 1);
    // Way 1 was touched last; invalidate it and refill.  Its age reset
    // to 0 makes it the victim over way 0 once both are valid again.
    store.invalidate(0, 1);
    store.install(0, 1, 8);
    EXPECT_EQ(store.victimWay(0), 1u) << "invalidate resets the age";
}

TEST(TagStore, VictimPrefersLowestInvalidWay)
{
    TagStore store = makeStore(1, 4, TagRepl::Lru);
    store.install(0, 0, 1);
    store.install(0, 2, 3);
    EXPECT_EQ(store.victimWay(0), 1u);
    store.install(0, 1, 2);
    EXPECT_EQ(store.victimWay(0), 3u);
}

TEST(TagStore, LruVictimIsOldestTouch)
{
    TagStore store = makeStore(1, 4, TagRepl::Lru);
    for (std::uint32_t w = 0; w < 4; ++w) {
        store.install(0, w, w);
        store.touch(0, w);
    }
    EXPECT_EQ(store.victimWay(0), 0u);
    store.touch(0, 0); // way 1 is now the oldest
    EXPECT_EQ(store.victimWay(0), 1u);
    store.touch(0, 1);
    EXPECT_EQ(store.victimWay(0), 2u);
}

TEST(TagStore, LruStampsMatchGlobalClockReference)
{
    // One random install / touch / evict / invalidate / fill sequence
    // drives a TagStore and the global-clock reference.  Every set's
    // victim and the operated set's whole age order must agree after
    // every step, across many renumberings of every set.
    constexpr std::uint64_t kSets = 3;
    for (const std::uint32_t ways : {1u, 2u, 16u, 29u, 32u, 64u}) {
        SCOPED_TRACE(::testing::Message() << ways << " ways");
        TagStore store = makeStore(kSets, ways, TagRepl::Lru);
        GlobalClockLru reference(kSets, ways);
        const std::uint64_t full =
            ways == 64 ? ~0ULL : (1ULL << ways) - 1;
        Rng rng(ways * 7919 + 1);
        std::vector<std::uint64_t> touches(kSets, 0);
        std::uint64_t full_set_victims = 0;
        for (int i = 0; i < 40000; ++i) {
            const std::uint64_t set = rng.below(kSets);
            const auto way = static_cast<std::uint32_t>(rng.below(ways));
            switch (rng.below(16)) {
              case 0:
                store.evict(set, way);
                reference.evict(set, way);
                break;
              case 1:
                store.invalidate(set, way);
                reference.invalidate(set, way);
                break;
              case 2:
                // A refill without a touch keeps the way's old age.
                store.install(set, way, way);
                reference.install(set, way);
                break;
              case 3:
              case 4:
              case 5: {
                full_set_victims += store.validMask(set) == full;
                const std::uint32_t victim = store.victimWay(set);
                ASSERT_EQ(victim, reference.victimWay(set))
                    << "step " << i;
                store.install(set, victim, i);
                reference.install(set, victim);
                store.touch(set, victim);
                reference.touch(set, victim);
                ++touches[set];
                break;
              }
              default:
                store.touch(set, way);
                reference.touch(set, way);
                ++touches[set];
                break;
            }
            for (std::uint64_t s = 0; s < kSets; ++s)
                ASSERT_EQ(store.victimWay(s), reference.victimWay(s))
                    << "step " << i << " set " << s;
            for (std::uint32_t w = 0; w < ways; ++w)
                ASSERT_EQ(store.lruStampAt(set, w) == 0,
                          reference.stampAt(set, w) == 0)
                    << "step " << i << " way " << w;
            ASSERT_EQ(ageOrder(ways,
                               [&](std::uint32_t w) {
                                   return std::uint64_t{
                                       store.lruStampAt(set, w)};
                               }),
                      ageOrder(ways,
                               [&](std::uint32_t w) {
                                   return reference.stampAt(set, w);
                               }))
                << "step " << i;
        }
        // A set renumbers at least once per 255 of its touches.
        for (std::uint64_t s = 0; s < kSets; ++s)
            EXPECT_GE(touches[s], 4u * TagStore::kMaxLruStamp)
                << "set " << s << " renumbers at least four times";
        EXPECT_GT(full_set_victims, 1000u)
            << "fills into full sets exercise the stamp scan";
    }
}

TEST(TagStore, TouchThatIssuesTheLastStampRenumbersInOrder)
{
    // Ways touched 0, 1, 2, 3, then way 3 until the set's counter
    // stands at 254: stamps {1, 2, 3, 254}, oldest first 0, 1, 2, 3.
    TagStore store = makeStore(1, 4, TagRepl::Lru);
    for (std::uint32_t w = 0; w < 4; ++w) {
        store.install(0, w, w);
        store.touch(0, w);
    }
    for (int i = 4; i < 254; ++i)
        store.touch(0, 3);
    ASSERT_EQ(store.lruStampAt(0, 3), 254u);
    EXPECT_EQ(store.victimWay(0), 0u);

    // Touching way 1 issues 255: the set renumbers to 1..4 in age
    // order 0, 2, 3, 1, and the victim is still way 0.
    store.touch(0, 1);
    EXPECT_EQ(store.lruStampAt(0, 0), 1u);
    EXPECT_EQ(store.lruStampAt(0, 2), 2u);
    EXPECT_EQ(store.lruStampAt(0, 3), 3u);
    EXPECT_EQ(store.lruStampAt(0, 1), 4u);
    EXPECT_EQ(store.victimWay(0), 0u);

    // The counter restarted at 4, and the order walks on from there.
    store.touch(0, 0);
    EXPECT_EQ(store.lruStampAt(0, 0), 5u);
    for (const std::uint32_t oldest : {2u, 3u, 1u, 0u}) {
        EXPECT_EQ(store.victimWay(0), oldest);
        store.touch(0, oldest);
    }
}

TEST(TagStore, InvalidatedWayStaysOldestAcrossRenumber)
{
    TagStore store = makeStore(1, 4, TagRepl::Lru);
    for (std::uint32_t w = 0; w < 4; ++w) {
        store.install(0, w, w);
        store.touch(0, w);
    }
    // Way 2 is invalidated and refilled without a touch: stamp 0.
    store.invalidate(0, 2);
    store.install(0, 2, 9);
    EXPECT_EQ(store.victimWay(0), 2u);

    // 251 touches alternating ways 0 and 3 take the counter from 4 to
    // 255; the last one (to way 0) renumbers 2, 254, 255 as 1, 2, 3.
    for (int i = 0; i < 251; ++i)
        store.touch(0, i % 2 == 0 ? 0 : 3);
    EXPECT_EQ(store.lruStampAt(0, 1), 1u);
    EXPECT_EQ(store.lruStampAt(0, 3), 2u);
    EXPECT_EQ(store.lruStampAt(0, 0), 3u);
    EXPECT_EQ(store.lruStampAt(0, 2), 0u) << "stamp 0 stays 0";
    EXPECT_EQ(store.victimWay(0), 2u) << "the invalidated way is oldest";
    store.touch(0, 2);
    EXPECT_EQ(store.victimWay(0), 1u);
}

TEST(TagStore, EvictedWayKeepsItsAgeAcrossRenumber)
{
    TagStore store = makeStore(1, 3, TagRepl::Lru);
    for (std::uint32_t w = 0; w < 3; ++w) {
        store.install(0, w, w);
        store.touch(0, w);
    }
    // Way 1 is evicted with stamp 2, then way 2 is touched until it
    // issues 255: stamps 1, 2, 255 renumber to 1, 2, 3.
    store.evict(0, 1);
    EXPECT_EQ(store.victimWay(0), 1u) << "invalid ways go first";
    for (int i = 3; i < 255; ++i)
        store.touch(0, 2);
    EXPECT_EQ(store.lruStampAt(0, 0), 1u);
    EXPECT_EQ(store.lruStampAt(0, 1), 2u) << "the stale age is ranked";
    EXPECT_EQ(store.lruStampAt(0, 2), 3u);

    // Refilled without a touch, way 1 is older than way 2 again.
    store.install(0, 1, 7);
    EXPECT_EQ(store.victimWay(0), 0u);
    store.touch(0, 0);
    EXPECT_EQ(store.victimWay(0), 1u);
}

TEST(TagStore, SetsAgeIndependently)
{
    TagStore store = makeStore(2, 2, TagRepl::Lru);
    for (std::uint64_t set = 0; set < 2; ++set)
        for (std::uint32_t w = 0; w < 2; ++w)
            store.install(set, w, w);
    store.touch(0, 0);
    store.touch(0, 1);
    store.touch(1, 1);
    store.touch(1, 0);
    EXPECT_EQ(store.victimWay(0), 0u);
    EXPECT_EQ(store.victimWay(1), 1u);
    // Each set counts from 1 on its own counter.
    EXPECT_EQ(store.lruStampAt(1, 1), 1u);
    EXPECT_EQ(store.lruStampAt(1, 0), 2u);

    // Set 0 renumbers twice; set 1's stamps and counter stand still.
    for (int i = 0; i < 600; ++i)
        store.touch(0, static_cast<std::uint32_t>(i % 2));
    EXPECT_EQ(store.victimWay(0), 0u);
    EXPECT_EQ(store.lruStampAt(1, 1), 1u);
    EXPECT_EQ(store.lruStampAt(1, 0), 2u);
    EXPECT_EQ(store.victimWay(1), 1u);
    store.touch(1, 1);
    EXPECT_EQ(store.lruStampAt(1, 1), 3u);
    EXPECT_EQ(store.victimWay(1), 0u);
}

TEST(TagStore, DirectMappedVictimIsWayZero)
{
    TagStore store = makeStore(4, 1, TagRepl::None);
    store.install(3, 0, 9);
    EXPECT_EQ(store.victimWay(3), 0u);
}

TEST(TagStore, NruClockSweep)
{
    TagStore store = makeStore(1, 3, TagRepl::Nru);
    for (std::uint32_t w = 0; w < 3; ++w)
        store.install(0, w, w);
    store.touch(0, 0);
    store.touch(0, 2);
    EXPECT_EQ(store.victimWay(0), 1u) << "first unreferenced way";
    store.touch(0, 1);
    // Every way referenced: the sweep clears the set and takes way 0.
    EXPECT_EQ(store.victimWay(0), 0u);
    EXPECT_EQ(store.victimWay(0), 0u) << "bits cleared, way 0 again";
    store.touch(0, 0);
    EXPECT_EQ(store.victimWay(0), 1u);
}

TEST(TagStore, RandomVictimMatchesSeededRng)
{
    // The plane draws from its own Rng: seed replSeed (default 1), one
    // below(ways) draw per victim request.
    TagStore store = makeStore(1, 8, TagRepl::Random);
    for (std::uint32_t w = 0; w < 8; ++w)
        store.install(0, w, w);
    Rng reference(1);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(store.victimWay(0),
                  static_cast<std::uint32_t>(reference.below(8)));
}

// The LRU / NRU / Random replacement contracts, one policy per suite,
// on a fully valid set so victimWay() asks the replacement plane.

TEST(LruPolicy, EvictsLeastRecentlyTouched)
{
    TagStore store = makeStore(4, 4, TagRepl::Lru);
    for (std::uint32_t w = 0; w < 4; ++w)
        store.install(0, w, w);
    for (std::uint32_t w = 0; w < 4; ++w)
        store.touch(0, w);
    EXPECT_EQ(store.victimWay(0), 0u);
    store.touch(0, 0);
    EXPECT_EQ(store.victimWay(0), 1u);
}

TEST(LruPolicy, InvalidatedWayBecomesVictim)
{
    TagStore store = makeStore(1, 3, TagRepl::Lru);
    for (std::uint32_t w = 0; w < 3; ++w) {
        store.install(0, w, w);
        store.touch(0, w);
    }
    store.invalidate(0, 2);
    EXPECT_EQ(store.victimWay(0), 2u);
}

TEST(RandomPolicy, VictimInRangeAndDeterministic)
{
    TagStore a(TagStoreConfig{1, 8, TagRepl::Random, 42});
    TagStore b(TagStoreConfig{1, 8, TagRepl::Random, 42});
    for (std::uint32_t w = 0; w < 8; ++w) {
        a.install(0, w, w);
        b.install(0, w, w);
    }
    for (int i = 0; i < 100; ++i) {
        const std::uint32_t victim = a.victimWay(0);
        EXPECT_LT(victim, 8u);
        EXPECT_EQ(victim, b.victimWay(0));
    }
}

TEST(NruPolicy, PrefersUnreferencedWays)
{
    TagStore store = makeStore(1, 4, TagRepl::Nru);
    for (std::uint32_t w = 0; w < 4; ++w)
        store.install(0, w, w);
    store.touch(0, 0);
    store.touch(0, 2);
    const std::uint32_t victim = store.victimWay(0);
    EXPECT_TRUE(victim == 1 || victim == 3) << victim;
}

TEST(NruPolicy, AllReferencedResetsAndPicksZero)
{
    TagStore store = makeStore(1, 2, TagRepl::Nru);
    for (std::uint32_t w = 0; w < 2; ++w)
        store.install(0, w, w);
    store.touch(0, 0);
    store.touch(0, 1);
    EXPECT_EQ(store.victimWay(0), 0u);
    // The sweep cleared the bits: way 1 is now unreferenced too.
    store.touch(0, 0);
    EXPECT_EQ(store.victimWay(0), 1u);
}

TEST(TagStore, DirtyAndFlagBitsAreIndependent)
{
    TagStore store = makeStore(1, 2, TagRepl::None);
    store.install(0, 0, 1);
    store.install(0, 1, 2);
    store.setDirty(0, 0, true);
    store.setFlag(0, 1, true);
    EXPECT_TRUE(store.dirtyAt(0, 0));
    EXPECT_FALSE(store.flagAt(0, 0));
    EXPECT_FALSE(store.dirtyAt(0, 1));
    EXPECT_TRUE(store.flagAt(0, 1));
    EXPECT_EQ(store.dirtyMask(0), 0b01u);
    store.setDirty(0, 0, false);
    EXPECT_EQ(store.dirtyMask(0), 0u);
}

TEST(TagStore, MetaPlanesHoldPerEntryWords)
{
    TagStore store = makeStore(2, 2, TagRepl::None, 2);
    store.install(0, 1, 1);
    store.setMeta(0, 1, 0, ~0ULL);
    store.setMeta(0, 1, 1, 0xA5A5);
    EXPECT_EQ(store.meta(0, 1, 0), ~0ULL);
    EXPECT_EQ(store.meta(0, 1, 1), 0xA5A5u);
    EXPECT_EQ(store.meta(0, 0, 0), 0u) << "neighbour entry untouched";
    store.evict(0, 1);
    EXPECT_EQ(store.meta(0, 1, 0), 0u) << "evict clears metadata";
    EXPECT_EQ(store.meta(0, 1, 1), 0u);
}

TEST(TagStore, ValidCountTracksPopulation)
{
    TagStore store = makeStore(4, 4, TagRepl::None);
    EXPECT_EQ(store.validCount(), 0u);
    store.install(0, 0, 1);
    store.install(3, 3, 2);
    EXPECT_EQ(store.validCount(), 2u);
    store.evict(0, 0);
    EXPECT_EQ(store.validCount(), 1u);
}

TEST(TagStore, SixtyFourWaysUseTheFullMask)
{
    TagStore store = makeStore(2, 64, TagRepl::Lru);
    for (std::uint32_t w = 0; w < 64; ++w) {
        store.install(0, w, 1000 + w);
        store.touch(0, w);
    }
    EXPECT_EQ(store.validMask(0), ~0ULL);
    const TagProbe probe = store.probe(0, 1063);
    EXPECT_TRUE(probe.hit);
    EXPECT_EQ(probe.way, 63u);
    EXPECT_EQ(store.victimWay(0), 0u) << "way 0 is the oldest touch";
}

TEST(TagStore, PlanesAreCacheLineAligned)
{
    static_assert(TagStore::kPlaneAlignment == 64,
                  "planes must start on a cache-line boundary");
    static_assert(AlignedPlane<std::uint64_t>::kAlignment == 64,
                  "AlignedPlane contract is 64-byte alignment");
    // 7 sets * 3 ways: deliberately not a multiple of 8 words, so any
    // alignment would be accidental without the aligned allocation.
    TagStore store = makeStore(7, 3, TagRepl::Lru);
    const auto misalign = [](const void *p) {
        return reinterpret_cast<std::uintptr_t>(p)
            % TagStore::kPlaneAlignment;
    };
    EXPECT_EQ(misalign(store.tagPlane()), 0u);
    EXPECT_EQ(misalign(store.validPlane()), 0u);
    EXPECT_EQ(misalign(store.dirtyPlane()), 0u);
}

TEST(TagStore, TagWidthFollowsTheOwnersBound)
{
    EXPECT_EQ(makeStore(4, 2, TagRepl::None).tagBits(), 64u)
        << "no bound: the 64-bit plane";
    const auto bits = [](std::uint64_t max_tag) {
        return TagStore(TagStoreConfig{4, 2, TagRepl::None, 1, 0, max_tag})
            .tagBits();
    };
    EXPECT_EQ(bits((1ULL << 32) - 1), 32u);
    EXPECT_EQ(bits(1ULL << 32), 64u);

    // The owners' bounds from the named physical-line limit: Alloy at
    // 64 MB (2^20 sets) and at 1 GB (2^24 sets), the 8 MB 16-way L3
    // (8192 sets), and a 64-set store (the L3 at scale 1/128 and below),
    // which keeps the 64-bit plane.
    static_assert(maxTagBelow(kPhysLineLimit, 1ULL << 20)
                  == (1ULL << 21) - 1);
    static_assert(maxTagBelow(kPhysLineLimit, 1ULL << 24)
                  == (1ULL << 17) - 1);
    static_assert(maxTagBelow(kPhysLineLimit, 8192) == (1ULL << 28) - 1);
    static_assert(maxTagBelow(kPhysLineLimit, 64) > (1ULL << 32));
    // A non-power-of-two set count rounds the bound down.
    static_assert(maxTagBelow(100, 7) == 14);
}

TEST(TagStore, NarrowPlaneMatchesWidePlaneOnRandomTraffic)
{
    // One random operation sequence drives a 32-bit and a 64-bit store
    // of the same geometry.  Probes (including tags the narrow words
    // cannot hold), victims, tags (including the stale ones evict()
    // leaves) and the valid/dirty masks must agree after every step.
    constexpr std::uint64_t kSets = 37;
    constexpr std::uint64_t kMaxTag = (1ULL << 21) - 1; // Alloy at 1/16
    for (const std::uint32_t ways : {1u, 16u, 29u, 32u}) {
        for (const TagRepl repl : {TagRepl::None, TagRepl::Lru,
                                   TagRepl::Nru, TagRepl::Random}) {
            SCOPED_TRACE(::testing::Message()
                         << ways << " ways, repl "
                         << static_cast<int>(repl));
            TagStore narrow(
                TagStoreConfig{kSets, ways, repl, 5, 0, kMaxTag});
            TagStore wide(TagStoreConfig{kSets, ways, repl, 5, 0});
            ASSERT_EQ(narrow.tagBits(), 32u);
            ASSERT_EQ(wide.tagBits(), 64u);
            Rng rng(ways * 131 + static_cast<std::uint64_t>(repl));
            for (int i = 0; i < 20000; ++i) {
                const std::uint64_t set = rng.below(kSets);
                const auto way =
                    static_cast<std::uint32_t>(rng.below(ways));
                // A small pool so probes hit, plus the bound itself.
                const std::uint64_t tag = rng.below(8) == 0
                    ? kMaxTag - rng.below(2)
                    : rng.below(2 * ways + 1);
                switch (rng.below(7)) {
                  case 0:
                  case 1: {
                    const TagProbe a = narrow.probe(set, tag);
                    const TagProbe b = wide.probe(set, tag);
                    ASSERT_EQ(a.hit, b.hit) << "step " << i;
                    ASSERT_EQ(a.way, b.way) << "step " << i;
                    break;
                  }
                  case 2: {
                    // Equal in the low 32 bits to a resident tag.
                    const std::uint64_t high = tag | (1ULL << 32);
                    ASSERT_FALSE(narrow.probe(set, high).hit)
                        << "step " << i;
                    ASSERT_FALSE(wide.probe(set, high).hit)
                        << "step " << i;
                    break;
                  }
                  case 3: {
                    const std::uint32_t victim = narrow.victimWay(set);
                    ASSERT_EQ(victim, wide.victimWay(set))
                        << "step " << i;
                    const bool dirty = rng.below(2) == 1;
                    narrow.install(set, victim, tag, dirty);
                    wide.install(set, victim, tag, dirty);
                    narrow.touch(set, victim);
                    wide.touch(set, victim);
                    break;
                  }
                  case 4:
                    narrow.evict(set, way);
                    wide.evict(set, way);
                    break;
                  case 5:
                    narrow.invalidate(set, way);
                    wide.invalidate(set, way);
                    break;
                  default:
                    narrow.touch(set, way);
                    wide.touch(set, way);
                    break;
                }
                ASSERT_EQ(narrow.validMask(set), wide.validMask(set))
                    << "step " << i;
                ASSERT_EQ(narrow.dirtyMask(set), wide.dirtyMask(set))
                    << "step " << i;
                for (std::uint32_t w = 0; w < ways; ++w)
                    ASSERT_EQ(narrow.tagAt(set, w), wide.tagAt(set, w))
                        << "step " << i << " way " << w;
            }
            std::uint64_t stale = 0;
            for (std::uint64_t set = 0; set < kSets; ++set) {
                for (std::uint32_t w = 0; w < ways; ++w) {
                    ASSERT_EQ(narrow.tagAt(set, w), wide.tagAt(set, w));
                    stale += !narrow.validAt(set, w)
                        && narrow.tagAt(set, w) != 0;
                }
            }
            EXPECT_GT(stale, 0u) << "evict() must leave stale tags";
            EXPECT_EQ(narrow.validCount(), wide.validCount());
        }
    }
}

TEST(TagStore, InstallAboveTheBoundIsAContainedPanicNamingIt)
{
    for (const std::uint64_t max_tag : {1000ULL, 1ULL << 40}) {
        TagStore store(
            TagStoreConfig{4, 2, TagRepl::Lru, 1, 0, max_tag});
        store.install(0, 0, max_tag); // the bound itself fits
        EXPECT_EQ(store.tagAt(0, 0), max_tag);

        ContainmentScope scope;
        try {
            store.install(1, 1, max_tag + 1);
            FAIL() << "a tag above maxTag = " << max_tag << " installed";
        } catch (const ContainedFailure &failure) {
            EXPECT_TRUE(failure.isPanic);
            EXPECT_NE(failure.message.find("maxTag = "
                                           + std::to_string(max_tag)),
                      std::string::npos)
                << failure.message;
        }
        EXPECT_FALSE(store.validAt(1, 1));
    }
}

TEST(TagStore, NarrowTagPlaneIsCacheLineAligned)
{
    // 7 sets * 3 ways of 4-byte words: 84 bytes, so only the aligned
    // allocation puts the plane on a line boundary.
    TagStore store(TagStoreConfig{7, 3, TagRepl::Lru, 1, 0, 1u << 20});
    ASSERT_EQ(store.tagBits(), 32u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(store.tagPlane())
                  % TagStore::kPlaneAlignment,
              0u);
    static_assert(AlignedPlane<std::uint32_t>::kAlignment == 64);
}
