/** @file Unit tests for the virtual memory page mapper. */

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "vm/page_mapper.hh"

using namespace bear;

namespace
{

/**
 * The hash-map first-touch mapper the leaf tables replaced, kept as
 * the reference they must reproduce call for call: one map node per
 * (process, virtual page) holding the physical page, frames numbered
 * in global first-touch order, 8 pages per scrambled chunk.
 */
class ReferenceMapper
{
  public:
    Addr
    translate(std::uint32_t process, Addr vaddr)
    {
        const Key key{process, vaddr >> kPageShift};
        auto [it, inserted] = table_.try_emplace(key, 0);
        if (inserted) {
            const std::uint64_t frame = next_frame_++;
            it->second = (scramble(frame >> 3) << 3) | (frame & 7);
        }
        return (it->second << kPageShift) | (vaddr & (kPageSize - 1));
    }

    std::uint64_t framesAllocated() const { return next_frame_; }

  private:
    static std::uint64_t
    scramble(std::uint64_t frame)
    {
        std::uint32_t x = static_cast<std::uint32_t>(frame);
        x *= 0x9E3779B1U;
        x = (x << 16) | (x >> 16);
        x *= 0x85EBCA77U;
        return x;
    }

    struct Key
    {
        std::uint32_t process;
        std::uint64_t vpage;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            std::uint64_t x = (static_cast<std::uint64_t>(k.process) << 52)
                ^ k.vpage;
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
            x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
            return static_cast<std::size_t>(x ^ (x >> 31));
        }
    };

    std::unordered_map<Key, std::uint64_t, KeyHash> table_;
    std::uint64_t next_frame_ = 0;
};

} // namespace

TEST(PageMapper, StableTranslation)
{
    PageMapper m;
    const Addr p1 = m.translate(0, 0x1000);
    const Addr p2 = m.translate(0, 0x1000);
    EXPECT_EQ(p1, p2);
}

TEST(PageMapper, OffsetWithinPagePreserved)
{
    PageMapper m;
    const Addr base = m.translate(0, 0x2000);
    const Addr inner = m.translate(0, 0x2abc);
    EXPECT_EQ(base & ~(kPageSize - 1), inner & ~(kPageSize - 1));
    EXPECT_EQ(inner & (kPageSize - 1), 0xabcULL);
}

TEST(PageMapper, ProcessesNeverCollide)
{
    // Paper Section 3.2: the mapping ensures two benchmarks never map
    // to the same physical address.
    PageMapper m;
    std::set<Addr> frames;
    for (std::uint32_t proc = 0; proc < 8; ++proc) {
        for (Addr v = 0; v < 512 * kPageSize; v += kPageSize) {
            const Addr phys = m.translate(proc, v) >> kPageShift;
            EXPECT_TRUE(frames.insert(phys).second)
                << "collision: proc " << proc << " vpage " << v;
        }
    }
}

TEST(PageMapper, SameVirtualPageDifferentProcessesDiffer)
{
    PageMapper m;
    const Addr a = m.translate(0, 0x5000);
    const Addr b = m.translate(1, 0x5000);
    EXPECT_NE(a, b);
}

TEST(PageMapper, FootprintTracksAllocations)
{
    PageMapper m;
    EXPECT_EQ(m.physicalFootprint(), 0u);
    m.translate(0, 0);
    m.translate(0, kPageSize);
    m.translate(0, 0); // repeat: no new frame
    EXPECT_EQ(m.framesAllocated(), 2u);
    EXPECT_EQ(m.physicalFootprint(), 2 * kPageSize);
}

TEST(PageMapper, ChunksKeepLocalContiguity)
{
    // Eight consecutively allocated pages land in one physically
    // contiguous chunk (row-buffer friendliness).
    PageMapper m;
    std::vector<Addr> phys;
    for (int i = 0; i < 8; ++i)
        phys.push_back(m.translate(0, i * kPageSize) >> kPageShift);
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(phys[i], phys[0] + i);
}

TEST(PageMapper, ScatterAcrossChunks)
{
    // Distinct chunks should not be physically adjacent in general.
    PageMapper m;
    const Addr a = m.translate(0, 0) >> kPageShift;
    Addr b = 0;
    for (int i = 0; i < 16; ++i)
        b = m.translate(0, i * kPageSize) >> kPageShift;
    EXPECT_NE(b, a + 15);
}

TEST(PageMapper, MatchesTheHashMapReferenceOnRandomTraffic)
{
    // 8 processes mixing a dense stream from page 0 (the workloads'
    // shape), sparse pages across 2^24 pages (64 GB) and repeats of
    // earlier addresses; every translation and the frame count must
    // equal the reference's.
    PageMapper mapper;
    ReferenceMapper reference;
    Rng rng(0x9A6E);
    std::vector<std::uint64_t> dense_next(8, 0);
    std::vector<std::pair<std::uint32_t, Addr>> seen;
    for (int i = 0; i < 200000; ++i) {
        const auto process = static_cast<std::uint32_t>(rng.below(8));
        const Addr offset = rng.below(kPageSize);
        std::uint32_t who = process;
        Addr vaddr = 0;
        const std::uint64_t kind = rng.below(10);
        if (kind < 5) {
            // Dense: a walk up from page 0 that stays or advances by
            // one or two pages.
            const std::uint64_t page = dense_next[process];
            dense_next[process] += rng.below(3);
            vaddr = (page << kPageShift) | offset;
        } else if (kind < 7) {
            vaddr = (rng.below(1ULL << 24) << kPageShift) | offset;
        } else if (!seen.empty()) {
            const auto &[p, v] = seen[rng.below(seen.size())];
            who = p;
            vaddr = (v & ~(kPageSize - 1)) | offset;
        }
        seen.emplace_back(who, vaddr);
        ASSERT_EQ(mapper.translate(who, vaddr),
                  reference.translate(who, vaddr))
            << "call " << i << ": process " << who << " vaddr 0x"
            << std::hex << vaddr;
    }
    EXPECT_EQ(mapper.framesAllocated(), reference.framesAllocated());
    EXPECT_GT(mapper.framesAllocated(), 50000u);
}

TEST(PageMapper, PhysicalLinesStayBelowTheNamedLimit)
{
    // The tag stores size their planes from kPhysLineLimit; the
    // mapper is what guarantees it.  Frames far apart in allocation
    // order exercise every chunk bit the scramble produces.
    PageMapper m;
    for (std::uint64_t page = 0; page < 70000; ++page) {
        const Addr paddr = m.translate(0, page << kPageShift);
        ASSERT_LT(lineOf(paddr), kPhysLineLimit);
    }
}

TEST(PageMapper, PagePastTheBoundFailsNamingIt)
{
    PageMapper m;
    const Addr last = (PageMapper::kMaxVirtualPages - 1) << kPageShift;
    const Addr past = PageMapper::kMaxVirtualPages << kPageShift;
    EXPECT_EQ(m.translate(1, last) + 8, m.translate(1, last + 8));
    EXPECT_EQ(m.framesAllocated(), 1u);

    ContainmentScope scope;
    try {
        (void)m.translate(1, past);
        FAIL() << "a page past the bound was mapped";
    } catch (const ContainedFailure &failure) {
        EXPECT_FALSE(failure.isPanic) << "bad input is a fatal error";
        EXPECT_NE(failure.message.find("kMaxVirtualPages"),
                  std::string::npos)
            << failure.message;
        EXPECT_NE(failure.message.find(
                      std::to_string(PageMapper::kMaxVirtualPages)),
                  std::string::npos)
            << failure.message;
    }
    EXPECT_EQ(m.framesAllocated(), 1u) << "the failed call took a frame";
}
