/**
 * @file
 * Bandwidth-bloat accounting (paper Sections 2.2-2.3).
 *
 * Every byte moved on the DRAM-cache data bus is attributed to one of
 * the paper's categories.  The Bloat Factor is total bytes divided by
 * useful bytes, where useful bytes are the demand data lines the DRAM
 * cache delivered to the processor (64 B per demand hit) — this is the
 * normalisation under which the paper's Figure 4 numbers hold
 * (Hit = 80/64 = 1.25x for the Alloy Cache, and exactly 1.0 for the
 * bandwidth-optimised ideal cache).
 */

#ifndef BEAR_DRAMCACHE_BLOAT_HH
#define BEAR_DRAMCACHE_BLOAT_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace bear
{

/** The six bandwidth categories of Section 2.3, plus the Dirty
 *  Eviction reads that tags-in-SRAM designs need (Section 8). */
enum class BloatCategory : std::uint8_t
{
    HitProbe = 0,    ///< tag+data transfer servicing a demand hit
    MissProbe,       ///< tag+data fetched only to discover a miss
    MissFill,        ///< installing a missed line
    WritebackProbe,  ///< tag fetch to check presence of a dirty LLC victim
    WritebackUpdate, ///< rewriting an existing line on a writeback hit
    WritebackFill,   ///< allocating a writeback miss
    DirtyEviction,   ///< reading a dirty victim for writeback to memory
    NumCategories
};

/** Human-readable name of a category. */
const char *bloatCategoryName(BloatCategory c);

/** Byte counters per category plus the useful-byte denominator.
 *  All quantities are strong-typed Bytes (common/units.hh): attributing
 *  a beat or line count without an explicit conversion through the bus
 *  width is a compile error, not a silent Figure 4 corruption. */
class BloatTracker
{
  public:
    static constexpr std::size_t kCategories =
        static_cast<std::size_t>(BloatCategory::NumCategories);

    /** Attribute @p volume of DRAM-cache bus traffic to @p category. */
    void
    note(BloatCategory category, Bytes volume)
    {
        bytes_[static_cast<std::size_t>(category)] += volume;
    }

    /** A demand line was delivered to the processor from the cache. */
    void noteUseful() { useful_bytes_ += kLineSize; }

    /**
     * A demand hit moved @p volume on the DRAM-cache bus: attribute it
     * to HitProbe and credit the 64 B useful line in one branch-free
     * update (the fused form of note(HitProbe, v) + noteUseful(),
     * which every design's hit path used to issue as two calls).
     */
    void
    noteHit(Bytes volume)
    {
        bytes_[static_cast<std::size_t>(BloatCategory::HitProbe)] +=
            volume;
        useful_bytes_ += kLineSize;
    }

    Bytes
    bytes(BloatCategory category) const
    {
        return bytes_[static_cast<std::size_t>(category)];
    }

    Bytes totalBytes() const;
    Bytes usefulBytes() const { return useful_bytes_; }

    /** Total bytes / useful bytes; 0 when nothing useful moved. */
    double bloatFactor() const;

    /** Per-category contribution to the bloat factor. */
    double categoryFactor(BloatCategory category) const;

    void reset();

  private:
    std::array<Bytes, kCategories> bytes_{};
    Bytes useful_bytes_{0};
};

} // namespace bear

#endif // BEAR_DRAMCACHE_BLOAT_HH
