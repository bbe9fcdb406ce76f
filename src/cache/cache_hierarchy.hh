/**
 * @file
 * The on-chip cache hierarchy: the shared L3 LLC in front of the L4.
 *
 * The paper's system is a four-level hierarchy (L1/L2/L3 SRAM, L4 DRAM
 * cache, Section 3.1) with a non-inclusive L3.  The workload
 * generators are parameterised by L3 MPKI (Table 2) and emit L2-miss
 * streams, so only the L3 is modelled: every reference goes straight
 * to it.
 *
 * The hierarchy reports which references miss the L3 (and therefore
 * access the DRAM cache) and which dirty L3 victims become writeback
 * requests; the system model adds DRAM-cache/memory timing.
 */

#ifndef BEAR_CACHE_CACHE_HIERARCHY_HH
#define BEAR_CACHE_CACHE_HIERARCHY_HH

#include <optional>

#include "cache/sram_cache.hh"
#include "common/types.hh"

namespace bear
{

/** Configuration for the on-chip levels. */
struct HierarchyConfig
{
    SramCacheConfig l3{"L3", 8ULL << 20, 16, 24, TagRepl::Lru};
};

/** What the on-chip hierarchy did with one reference. */
struct HierarchyOutcome
{
    bool llcMiss = false;   ///< must access the DRAM cache / memory
    Cycle onChipLatency = 0; ///< cycles spent in on-chip levels
};

/** On-chip portion: the shared L3. */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyConfig &config);

    /**
     * Run one L2-miss reference through the shared L3 (@p core does
     * not select anything: every core shares it).  An L3 miss leaves
     * the L3 unfilled until fillLlc() is called with the DRAM-cache
     * outcome.
     */
    HierarchyOutcome access(CoreId core, LineAddr line, bool is_write);

    /**
     * Complete an L3 miss: install @p line with presence bit @p dcp
     * (true when the line was serviced from or installed in the DRAM
     * cache).  Returns the writeback generated by a dirty victim, if
     * any; the caller stamps issuedAt with the eviction time (the
     * hierarchy has no clock).
     */
    std::optional<WritebackRequest> fillLlc(LineAddr line, bool is_write,
                                            bool dcp);

    /** DRAM cache evicted @p line: clear its presence bit (DCP flow). */
    void onDramCacheEviction(LineAddr line);

    /**
     * Inclusive DRAM cache evicted @p line: back-invalidate it from
     * the L3.  Returns true if a dirty copy was dropped (its data must
     * be forwarded to main memory by the caller).
     */
    bool backInvalidate(LineAddr line);

    SramCache &llc() { return l3_; }
    const SramCache &llc() const { return l3_; }

    void resetStats() { l3_.resetStats(); }

  private:
    SramCache l3_;
};

} // namespace bear

#endif // BEAR_CACHE_CACHE_HIERARCHY_HH
