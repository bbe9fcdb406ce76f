#include "dramcache/tis_cache.hh"

#include "common/log.hh"

namespace bear
{

TisCache::TisCache(std::uint64_t capacity_bytes, DramSystem &dram,
                   DramSystem &memory, BloatTracker &bloat)
    : DramCache(dram, memory, bloat),
      sets_(Bytes{capacity_bytes} / kLineSize / kWays),
      tags_(TagStoreConfig{sets_, kWays, TagRepl::Lru, 1, 0,
                           maxTagBelow(kPhysLineLimit, sets_)})
{
}

DramCoord
TisCache::coordOf(std::uint64_t set, std::uint32_t way) const
{
    // The data array is a flat sequence of 64-byte slots; one set's 32
    // ways fill one 2 KB row, giving row-buffer locality to victim
    // reads and fills of the same set.
    const std::uint64_t slot = set * kWays + way;
    const DramGeometry &g = dram_.geometry();
    const std::uint64_t slots_per_row = g.rowBytes / kLineSize;
    const std::uint64_t row_id = slot / slots_per_row;
    DramCoord coord;
    coord.channel = static_cast<std::uint32_t>(row_id % g.channels);
    const std::uint64_t rest = row_id / g.channels;
    coord.bank = static_cast<std::uint32_t>(rest % g.banksPerChannel);
    coord.row = rest / g.banksPerChannel;
    return coord;
}

DramCacheReadOutcome
TisCache::serviceRead(Cycle at, LineAddr line, Pc, CoreId)
{
    const std::uint64_t set = setOf(line);
    const std::uint64_t tag = tagOf(line);
    const TagProbe probe = tags_.probe(set, tag);

    DramCacheReadOutcome outcome;
    if (probe.hit) {
        // Tags are on chip: the DRAM access moves only the data line.
        const DramResult res =
            dram_.read(at, coordOf(set, probe.way), kLineSize);
        bloat_.noteHit(kLineSize);
        tags_.touch(set, probe.way);
        outcome.source = ServiceSource::L4Hit;
        outcome.presentAfter = true;
        outcome.dataReady = res.dataReady;
        return outcome;
    }

    const DramResult mem = memory_.readLine(at, line);
    outcome.source = ServiceSource::L4MissMemory;
    outcome.dataReady = mem.dataReady;

    // Fill, evicting the LRU way.
    const std::uint32_t victim = tags_.victimWay(set);
    if (tags_.validAt(set, victim)) {
        const LineAddr victim_line =
            tags_.tagAt(set, victim) * sets_ + set;
        if (tags_.dirtyAt(set, victim)) {
            // No probe ever read this line: pay a Dirty-Eviction read.
            dram_.read(at, coordOf(set, victim), kLineSize);
            bloat_.note(BloatCategory::DirtyEviction, kLineSize);
            memory_.writeLine(at, victim_line);
        }
        notifyEviction(victim_line);
    }
    tags_.install(set, victim, tag);
    tags_.touch(set, victim);
    dram_.write(at, coordOf(set, victim), kLineSize);
    bloat_.note(BloatCategory::MissFill, kLineSize);
    if (trace_) {
        trace_->record(obs::TraceEventKind::Fill, at, line,
                       kLineSize.count());
    }
    outcome.presentAfter = true;
    return outcome;
}

Cycle
TisCache::serviceWriteback(const WritebackRequest &request)
{
    const Cycle at = request.issuedAt;
    const LineAddr line = request.line;
    const std::uint64_t set = setOf(line);
    const TagProbe probe = tags_.probe(set, tagOf(line));
    if (probe.hit) {
        ++writeback_hits_;
        tags_.setDirty(set, probe.way, true);
        tags_.touch(set, probe.way);
        dram_.write(at, coordOf(set, probe.way), kLineSize);
        bloat_.note(BloatCategory::WritebackUpdate, kLineSize);
    } else {
        ++writeback_misses_;
        memory_.writeLine(at, line);
    }
    // The SRAM tags resolve the writeback without a DRAM probe.
    return at;
}

bool
TisCache::contains(LineAddr line) const
{
    return tags_.probe(setOf(line), tagOf(line)).hit;
}

bool
TisCache::holdsDirty(LineAddr line) const
{
    const std::uint64_t set = setOf(line);
    const TagProbe probe = tags_.probe(set, tagOf(line));
    return probe.hit && tags_.dirtyAt(set, probe.way);
}

Bytes
TisCache::sramOverheadBytes() const
{
    return Bytes{sets_ * kWays * kTagBytesPerLine};
}

} // namespace bear
