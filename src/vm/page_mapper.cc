#include "vm/page_mapper.hh"

#include "common/log.hh"

namespace bear
{

std::uint32_t *
PageMapper::map(std::uint32_t process, std::uint64_t vpage)
{
    if (vpage >= kMaxVirtualPages) {
        bear_fatal("virtual page ", vpage, " of process ", process,
                   " is past the page-table bound of kMaxVirtualPages = ",
                   kMaxVirtualPages, " pages per process");
    }
    if (process >= tables_.size())
        tables_.resize(std::uint64_t{process} + 1);
    std::vector<Leaf> &table = tables_[process];
    const std::uint64_t leaf = vpage >> kLeafShift;
    if (leaf >= table.size())
        table.resize(leaf + 1);
    if (!table[leaf])
        table[leaf] = std::make_unique<std::uint32_t[]>(kLeafMask + 1);
    std::uint32_t &entry = table[leaf][vpage & kLeafMask];
    if (entry == 0) {
        bear_assert(next_frame_ < kMaxFrames, "page table full: ",
                    kMaxFrames, " frames (kMaxFrames) allocated");
        entry = static_cast<std::uint32_t>(++next_frame_);
    }
    return &entry;
}

} // namespace bear
