/**
 * @file
 * Virtual-to-physical address translation (paper Section 3.1).
 *
 * The paper models a virtual memory system so that, in particular,
 * "the virtual-to-physical page mapping ensures that two benchmarks do
 * not map to the same address" (Section 3.2).  PageMapper implements a
 * first-touch allocator over a shared physical page pool: each process
 * (core running a benchmark instance) owns a private page table, and
 * physical frames are handed out from a global bump allocator whose
 * order is shuffled by a deterministic hash so that consecutive virtual
 * pages of one process do not map to consecutive DRAM rows of the
 * physical space (which would make the DRAM-cache index stride
 * unrealistically regular).
 *
 * Each page table is a directory of fixed-size leaves indexed by
 * virtual page.  A leaf holds 1024 four-byte entries (the frame index
 * + 1, 0 = unmapped) and is allocated on the first touch of any page it
 * covers, so host memory follows the pages a run touches in 4 KB steps
 * and never copies.  Workload address spaces are dense from 0, which
 * keeps the directories short.  The physical page is recomputed from
 * the frame index on every translation: 8 pages per scrambled 32-bit
 * chunk, which keeps every physical line below kPhysLineLimit
 * (common/types.hh).
 */

#ifndef BEAR_VM_PAGE_MAPPER_HH
#define BEAR_VM_PAGE_MAPPER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace bear
{

/** First-touch virtual-to-physical page mapper shared by all cores. */
class PageMapper
{
  public:
    /**
     * Virtual pages per process that translate() accepts: a 42-bit
     * (4 TiB) virtual address space.  Trace files are outside input, so
     * a page past it is a fatal error that names this bound rather than
     * a directory sized by a corrupt address.
     */
    static constexpr std::uint64_t kMaxVirtualPages = 1ULL << 30;

    /** Frames the 4-byte entries can name (frame index + 1 <= 2^32-1). */
    static constexpr std::uint64_t kMaxFrames = (1ULL << 32) - 1;

    /**
     * Translate a virtual byte address of @p process to a physical byte
     * address, allocating a fresh frame on first touch.
     */
    Addr
    translate(std::uint32_t process, Addr vaddr)
    {
        const std::uint64_t vpage = vaddr >> kPageShift;
        std::uint32_t *entry = nullptr;
        if (process < tables_.size()) {
            const std::vector<Leaf> &table = tables_[process];
            const std::uint64_t leaf = vpage >> kLeafShift;
            if (leaf < table.size() && table[leaf])
                entry = &table[leaf][vpage & kLeafMask];
        }
        if (entry == nullptr || *entry == 0)
            entry = map(process, vpage);
        return (physPageOf(*entry - 1ULL) << kPageShift)
            | (vaddr & (kPageSize - 1));
    }

    /** Number of physical frames allocated so far. */
    std::uint64_t framesAllocated() const { return next_frame_; }

    /** Physical footprint in bytes. */
    std::uint64_t physicalFootprint() const
    {
        return next_frame_ * kPageSize;
    }

  private:
    static constexpr std::uint64_t kLeafShift = 10;
    static constexpr std::uint64_t kLeafMask = (1ULL << kLeafShift) - 1;

    /** 1024 entries: frame index + 1, or 0 while the page is unmapped. */
    using Leaf = std::unique_ptr<std::uint32_t[]>;

    /**
     * Slow path of translate(): grow @p process's table to cover
     * @p vpage, allocate its leaf and, on first touch, its frame.
     * Returns the (now nonzero) entry.
     */
    std::uint32_t *map(std::uint32_t process, std::uint64_t vpage);

    /**
     * Physical page of frame index @p frame.  Frames are kept 8 pages
     * per physically contiguous chunk so spatial streams still enjoy
     * some row-buffer locality; chunks are scattered by scramble().
     */
    static std::uint64_t
    physPageOf(std::uint64_t frame)
    {
        return (scramble(frame >> kPagesPerChunkShift)
                << kPagesPerChunkShift)
            | (frame & ((1ULL << kPagesPerChunkShift) - 1));
    }

    /** Invertible mixing of the chunk number to de-pattern placement. */
    static std::uint64_t
    scramble(std::uint64_t chunk)
    {
        // Bijective mixing on 32 bits (odd-constant multiply + rotate),
        // so distinct allocations can never collide in physical space
        // while successive allocations scatter across cache sets and
        // DRAM banks.  The 32-bit result is what bounds physical lines
        // below kPhysLineLimit.
        std::uint32_t x = static_cast<std::uint32_t>(chunk);
        x *= 0x9E3779B1U;
        x = (x << 16) | (x >> 16);
        x *= 0x85EBCA77U;
        return x;
    }

    static_assert(kPhysChunkBits == 32,
                  "scramble() yields 32-bit chunk numbers");
    static_assert((kMaxFrames >> kPagesPerChunkShift) < (1ULL << 32),
                  "every frame's chunk must survive scramble()");

    std::vector<std::vector<Leaf>> tables_; ///< [process][vpage >> 10]
    std::uint64_t next_frame_ = 0;
};

} // namespace bear

#endif // BEAR_VM_PAGE_MAPPER_HH
