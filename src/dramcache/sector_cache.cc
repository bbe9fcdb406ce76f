#include "dramcache/sector_cache.hh"

#include "common/log.hh"

namespace bear
{

SectorCache::SectorCache(std::uint64_t capacity_bytes, DramSystem &dram,
                         DramSystem &memory, BloatTracker &bloat)
    : SectorCache(SectorCacheConfig{"SC", capacity_bytes, false}, dram,
                  memory, bloat)
{
}

SectorCache::SectorCache(const SectorCacheConfig &config,
                         DramSystem &dram, DramSystem &memory,
                         BloatTracker &bloat)
    : DramCache(dram, memory, bloat), config_(config),
      sets_(Bytes{config.capacityBytes} / kSectorBytes / kWays),
      tags_(TagStoreConfig{
          sets_, kWays, TagRepl::Lru, 1, 2,
          maxTagBelow(kPhysLineLimit / kBlocksPerSector, sets_)})
{
    // The per-block bitmaps ride in the store's 64-bit metadata
    // planes, so a sector must hold exactly one machine word of
    // blocks.
    static_assert(kBlocksPerSector == 64);
}

DramCoord
SectorCache::coordOf(std::uint64_t set, std::uint32_t way,
                     std::uint32_t block) const
{
    // A sector occupies two consecutive 2 KB rows in one bank so that
    // streaming through a sector enjoys row-buffer hits.
    const DramGeometry &g = dram_.geometry();
    const std::uint64_t rows_per_sector = kSectorBytes / g.rowBytes;
    const std::uint64_t blocks_per_row = g.rowBytes / kLineSize;
    const std::uint64_t sector_id = set * kWays + way;
    DramCoord coord;
    coord.channel = static_cast<std::uint32_t>(sector_id % g.channels);
    const std::uint64_t rest = sector_id / g.channels;
    coord.bank = static_cast<std::uint32_t>(rest % g.banksPerChannel);
    coord.row = (rest / g.banksPerChannel) * rows_per_sector
        + block / blocks_per_row;
    return coord;
}

void
SectorCache::evictSector(Cycle at, std::uint64_t set, std::uint32_t way)
{
    bear_assert(tags_.validAt(set, way), "evicting an invalid sector");
    ++sector_evictions_;
    const std::uint64_t sector_addr = tags_.tagAt(set, way) * sets_ + set;
    const std::uint64_t block_valid =
        tags_.meta(set, way, kBlockValidPlane);
    const std::uint64_t block_dirty =
        tags_.meta(set, way, kBlockDirtyPlane);
    if (config_.footprintPrefetch)
        footprints_[sector_addr] = block_valid;
    for (std::uint32_t b = 0; b < kBlocksPerSector; ++b) {
        if (!((block_valid >> b) & 1))
            continue;
        const LineAddr line = sector_addr * kBlocksPerSector + b;
        if ((block_dirty >> b) & 1) {
            // The dirty-replacement penalty: read every dirty block out
            // of the DRAM cache and push it to main memory.
            dram_.read(at, coordOf(set, way, b), kLineSize);
            bloat_.note(BloatCategory::DirtyEviction, kLineSize);
            memory_.writeLine(at, line);
            ++dirty_flushed_;
        }
        notifyEviction(line);
    }
    // evict() clears valid and both block bitmaps; the way's LRU age
    // survives, as it did before the port.
    tags_.evict(set, way);
}

DramCacheReadOutcome
SectorCache::serviceRead(Cycle at, LineAddr line, Pc, CoreId)
{
    const std::uint64_t sector = sectorOf(line);
    const std::uint64_t set = setOf(sector);
    const std::uint64_t tag = tagOf(sector);
    const std::uint32_t block = blockOf(line);
    const TagProbe probe = tags_.probe(set, tag);
    std::uint32_t way = probe.hit ? probe.way : kWays;

    DramCacheReadOutcome outcome;
    if (way != kWays
        && ((tags_.meta(set, way, kBlockValidPlane) >> block) & 1)) {
        const DramResult res =
            dram_.read(at, coordOf(set, way, block), kLineSize);
        bloat_.noteHit(kLineSize);
        tags_.touch(set, way);
        outcome.source = ServiceSource::L4Hit;
        outcome.presentAfter = true;
        outcome.dataReady = res.dataReady;
        return outcome;
    }

    const DramResult mem = memory_.readLine(at, line);
    outcome.source = ServiceSource::L4MissMemory;
    outcome.dataReady = mem.dataReady;

    if (way == kWays) {
        // Allocate the sector, evicting an LRU victim if needed.
        way = tags_.victimWay(set);
        if (tags_.validAt(set, way))
            evictSector(at, set, way);
        tags_.install(set, way, tag);
        if (config_.footprintPrefetch)
            prefetchFootprint(at, sector, set, way, block);
    }
    tags_.setMeta(set, way, kBlockValidPlane,
                  tags_.meta(set, way, kBlockValidPlane)
                      | (1ULL << block));
    tags_.setMeta(set, way, kBlockDirtyPlane,
                  tags_.meta(set, way, kBlockDirtyPlane)
                      & ~(1ULL << block));
    tags_.touch(set, way);
    dram_.write(at, coordOf(set, way, block), kLineSize);
    bloat_.note(BloatCategory::MissFill, kLineSize);
    if (trace_) {
        trace_->record(obs::TraceEventKind::Fill, at, line,
                       kLineSize.count());
    }
    outcome.presentAfter = true;
    return outcome;
}

Cycle
SectorCache::serviceWriteback(const WritebackRequest &request)
{
    const Cycle at = request.issuedAt;
    const LineAddr line = request.line;
    const std::uint64_t sector = sectorOf(line);
    const std::uint64_t set = setOf(sector);
    const std::uint32_t block = blockOf(line);
    const TagProbe probe = tags_.probe(set, tagOf(sector));

    if (!probe.hit) {
        // Sector absent: writeback-miss no-allocate, as in the baseline.
        ++writeback_misses_;
        memory_.writeLine(at, line);
        return at;
    }

    const std::uint32_t way = probe.way;
    tags_.touch(set, way);
    const std::uint64_t block_valid =
        tags_.meta(set, way, kBlockValidPlane);
    tags_.setMeta(set, way, kBlockDirtyPlane,
                  tags_.meta(set, way, kBlockDirtyPlane)
                      | (1ULL << block));
    if ((block_valid >> block) & 1) {
        ++writeback_hits_;
        dram_.write(at, coordOf(set, way, block), kLineSize);
        bloat_.note(BloatCategory::WritebackUpdate, kLineSize);
    } else {
        // Space is reserved in the resident sector: install the dirty
        // block (Writeback Fill traffic).
        ++writeback_hits_;
        tags_.setMeta(set, way, kBlockValidPlane,
                      block_valid | (1ULL << block));
        dram_.write(at, coordOf(set, way, block), kLineSize);
        bloat_.note(BloatCategory::WritebackFill, kLineSize);
    }
    // The SRAM sector tags resolve the writeback without a DRAM probe.
    return at;
}

bool
SectorCache::contains(LineAddr line) const
{
    const std::uint64_t sector = sectorOf(line);
    const std::uint64_t set = setOf(sector);
    const TagProbe probe = tags_.probe(set, tagOf(sector));
    return probe.hit
        && ((tags_.meta(set, probe.way, kBlockValidPlane)
             >> blockOf(line)) & 1);
}

bool
SectorCache::holdsDirty(LineAddr line) const
{
    const std::uint64_t sector = sectorOf(line);
    const std::uint64_t set = setOf(sector);
    const TagProbe probe = tags_.probe(set, tagOf(sector));
    return probe.hit
        && ((tags_.meta(set, probe.way, kBlockDirtyPlane)
             >> blockOf(line)) & 1);
}

void
SectorCache::prefetchFootprint(Cycle at, std::uint64_t sector,
                               std::uint64_t set, std::uint32_t way,
                               std::uint32_t demand_block)
{
    const auto it = footprints_.find(sector);
    if (it == footprints_.end())
        return;
    const std::uint64_t footprint = it->second;
    for (std::uint32_t b = 0; b < kBlocksPerSector; ++b) {
        const std::uint64_t valid =
            tags_.meta(set, way, kBlockValidPlane);
        if (!((footprint >> b) & 1) || ((valid >> b) & 1)
            || b == demand_block)
            continue;
        // Each prefetched block costs a main-memory read plus a
        // DRAM-cache fill -- the "extra bandwidth consumed by
        // inaccurate prefetches" of the paper's Section 9.1.
        memory_.readLine(at, sector * kBlocksPerSector + b);
        dram_.write(at, coordOf(set, way, b), kLineSize);
        bloat_.note(BloatCategory::MissFill, kLineSize);
        tags_.setMeta(set, way, kBlockValidPlane,
                      valid | (1ULL << b));
        tags_.setMeta(set, way, kBlockDirtyPlane,
                      tags_.meta(set, way, kBlockDirtyPlane)
                          & ~(1ULL << b));
        ++blocks_prefetched_;
    }
}

Bytes
SectorCache::sramOverheadBytes() const
{
    // Per sector: ~4 B tag + 64 valid + 64 dirty bits = 20 B; the paper
    // quotes 6 MB for 256K sectors of a 1 GB cache.
    return Bytes{sets_ * kWays * (4 + 2 * kBlocksPerSector / 8)};
}

void
SectorCache::resetStats()
{
    DramCache::resetStats();
    sector_evictions_ = 0;
    dirty_flushed_ = 0;
    blocks_prefetched_ = 0;
}

} // namespace bear
