#include "dramcache/loh_hill_cache.hh"

#include "common/log.hh"

namespace bear
{

LohHillCache::LohHillCache(const LohHillConfig &config, DramSystem &dram,
                           DramSystem &memory, BloatTracker &bloat)
    : DramCache(dram, memory, bloat), config_(config),
      // One 2 KB row per set: 3 tag lines + 29 data lines.
      sets_(Bytes{config.capacityBytes} / dram.geometry().rowBytes),
      tags_(TagStoreConfig{sets_, kWays, TagRepl::Lru, 1, 0,
                           maxTagBelow(kPhysLineLimit, sets_)})
{
}

DramCoord
LohHillCache::coordOf(std::uint64_t set) const
{
    DramCoord coord;
    const DramGeometry &g = dram_.geometry();
    coord.channel = static_cast<std::uint32_t>(set % g.channels);
    const std::uint64_t rest = set / g.channels;
    coord.bank = static_cast<std::uint32_t>(rest % g.banksPerChannel);
    coord.row = rest / g.banksPerChannel;
    return coord;
}

void
LohHillCache::install(Cycle at, std::uint64_t set, LineAddr line)
{
    const std::uint32_t victim = tags_.victimWay(set);
    const DramCoord coord = coordOf(set);
    if (tags_.validAt(set, victim)) {
        const LineAddr victim_line =
            tags_.tagAt(set, victim) * sets_ + set;
        if (tags_.dirtyAt(set, victim)) {
            // Read the dirty victim's data out for writeback to memory.
            dram_.read(at, coord, kLineSize);
            bloat_.note(BloatCategory::DirtyEviction, kLineSize);
            memory_.writeLine(at, victim_line);
        }
        notifyEviction(victim_line);
    }
    tags_.install(set, victim, tagOf(line));
    tags_.touch(set, victim);
    // New data line plus the tag line holding this way's tag.
    dram_.write(at, coord, kLineSize + kLineSize);
    bloat_.note(BloatCategory::MissFill, kLineSize + kLineSize);
    if (trace_) {
        trace_->record(obs::TraceEventKind::Fill, at, line,
                       (kLineSize + kLineSize).count());
    }
}

DramCacheReadOutcome
LohHillCache::serviceRead(Cycle at, LineAddr line, Pc, CoreId)
{
    const std::uint64_t set = setOf(line);
    const std::uint64_t tag = tagOf(line);
    const TagProbe probe = tags_.probe(set, tag);
    const bool hit = probe.hit;
    const DramCoord coord = coordOf(set);

    // Every request consults the MissMap (LH) before dispatch; the MC
    // variant replaces it with a zero-latency perfect predictor.
    const Cycle dispatch = at + config_.missMapLatency;

    DramCacheReadOutcome outcome;
    if (hit) {
        // Read the 3 tag lines, then the data line from the open row.
        const DramResult tag_read = dram_.read(dispatch, coord, kTagBytes);
        const DramResult data_read =
            dram_.read(tag_read.dataReady, coord, kLineSize);
        bloat_.noteHit(kTagBytes + kLineSize);
        // LRU promotion rewrites one tag line (paper footnote 3).
        dram_.write(data_read.dataReady, coord, kLineSize);
        bloat_.note(BloatCategory::HitProbe, kLineSize);
        tags_.touch(set, probe.way);
        outcome.source = ServiceSource::L4Hit;
        outcome.presentAfter = true;
        outcome.dataReady = data_read.dataReady;
        return outcome;
    }

    // MissMap/predictor filters the miss: no Miss Probe is issued.
    const Cycle mem_issue =
        config_.perfectPredictor ? at : dispatch;
    const DramResult mem = memory_.readLine(mem_issue, line);
    outcome.source = ServiceSource::L4MissMemory;
    outcome.dataReady = mem.dataReady;

    install(mem.dataReady, set, line);
    outcome.presentAfter = true;
    return outcome;
}

Cycle
LohHillCache::serviceWriteback(const WritebackRequest &request)
{
    const Cycle at = request.issuedAt;
    const LineAddr line = request.line;
    const std::uint64_t set = setOf(line);
    const std::uint64_t tag = tagOf(line);
    const DramCoord coord = coordOf(set);

    // Neither LH nor MC reduces Writeback Probes (Section 7.5): the
    // tag lines are read to locate the way.
    const DramResult probe = dram_.read(at, coord, kTagBytes);
    bloat_.note(BloatCategory::WritebackProbe, kTagBytes);
    if (trace_) {
        trace_->record(obs::TraceEventKind::WritebackProbe, at, line,
                       kTagBytes.count());
    }

    const TagProbe wb = tags_.probe(set, tag);
    if (wb.hit) {
        ++writeback_hits_;
        tags_.setDirty(set, wb.way, true);
        tags_.touch(set, wb.way);
        // New data plus the updated tag line.
        dram_.write(probe.dataReady, coord, kLineSize + kLineSize);
        bloat_.note(BloatCategory::WritebackUpdate, kLineSize + kLineSize);
    } else {
        ++writeback_misses_;
        memory_.writeLine(probe.dataReady, line);
    }
    return probe.dataReady;
}

bool
LohHillCache::contains(LineAddr line) const
{
    return tags_.probe(setOf(line), tagOf(line)).hit;
}

bool
LohHillCache::holdsDirty(LineAddr line) const
{
    const std::uint64_t set = setOf(line);
    const TagProbe probe = tags_.probe(set, tagOf(line));
    return probe.hit && tags_.dirtyAt(set, probe.way);
}

} // namespace bear
