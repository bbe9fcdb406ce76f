#include "sim/system.hh"

#include <algorithm>
#include <functional>

#include "common/log.hh"
#include "dramcache/alloy_cache.hh"
#include "dramcache/bwopt_cache.hh"
#include "dramcache/loh_hill_cache.hh"
#include "dramcache/no_cache.hh"
#include "dramcache/sector_cache.hh"
#include "dramcache/tis_cache.hh"

namespace bear
{

namespace
{

Bytes
scaleBytes(Bytes volume, double scale)
{
    const auto scaled =
        static_cast<std::uint64_t>(volume.toDouble() * scale);
    // Keep a sane minimum so tiny test systems stay well-formed.
    return std::max(Bytes{scaled}, Bytes{64 * 1024});
}

} // namespace

System::System(const SystemConfig &config,
               std::vector<std::unique_ptr<RefStream>> streams)
    : config_(config), streams_(std::move(streams))
{
    bear_assert(streams_.size() == config.cores,
                "need one stream per core (", config.cores, "), got ",
                streams_.size());

    cache_dram_ = std::make_unique<DramSystem>(
        "l4dram", DramTiming{},
        makeCacheGeometry(config.bandwidthRatio, config.totalBanks));
    main_memory_ = std::make_unique<DramSystem>("ddr", DramTiming{},
                                                makeMemoryGeometry());

    HierarchyConfig hier;
    hier.l3.capacityBytes = scaleBytes(Bytes{config.llcCapacityBytes},
                                       config.scale)
                                .count();
    hierarchy_ = std::make_unique<CacheHierarchy>(hier);

    DesignParams params;
    params.capacityBytes = scaleBytes(Bytes{config.cacheCapacityBytes},
                                      config.scale)
                               .count();
    params.cores = config.cores;
    params.seed = config.seed;
    bool inclusive = config.design == DesignKind::InclusiveAlloy;
    if (config.alloyOverride) {
        AlloyConfig alloy = *config.alloyOverride;
        alloy.capacityBytes = params.capacityBytes;
        alloy.cores = params.cores;
        alloy.seed = params.seed;
        inclusive = alloy.inclusive;
        dram_cache_ = std::make_unique<AlloyCache>(
            alloy, *cache_dram_, *main_memory_, bloat_);
    } else {
        dram_cache_ = makeDesign(config.design, params, *cache_dram_,
                                 *main_memory_, bloat_);
    }

    if (inclusive) {
        dram_cache_->setEvictionListener([this](LineAddr line) {
            return hierarchy_->backInvalidate(line);
        });
    } else {
        dram_cache_->setEvictionListener([this](LineAddr line) {
            hierarchy_->onDramCacheEviction(line);
            return false;
        });
    }

    if (config.traceCapacity > 0) {
        trace_ = std::make_unique<obs::EventTrace>(config.traceCapacity);
        dram_cache_->setTrace(trace_.get());
        cache_dram_->setTrace(trace_.get());
    }

    cores_.reserve(config.cores);
    for (CoreId c = 0; c < config.cores; ++c)
        cores_.emplace_back(c, config.baseCpi);
}

System::~System() = default;

void
System::drainDueWritebacks(Cycle now)
{
    while (!wb_queue_.empty() && wb_queue_.front().issuedAt <= now) {
        const WritebackRequest wb = wb_queue_.front();
        std::pop_heap(wb_queue_.begin(), wb_queue_.end(),
                      IssuedLater{});
        wb_queue_.pop_back();
        dram_cache_->writeback(wb);
    }
    wb_next_due_ =
        wb_queue_.empty() ? ~Cycle{0} : wb_queue_.front().issuedAt;
}

void
System::step(CoreId core_id)
{
    CoreModel &core = cores_[core_id];
    const MemRef ref = streams_[core_id]->next();

    core.advanceInstructions(ref.instGap);
    flushWritebacks(core.cycle());

    const Addr paddr = mapper_.translate(core_id, ref.vaddr);
    const LineAddr line = lineOf(paddr);

    const HierarchyOutcome outcome =
        hierarchy_->access(core_id, line, ref.isWrite);
    ++demand_accesses_;

    if (!outcome.llcMiss) {
        core.completeOnChip(outcome.onChipLatency, ref.dependent);
        return;
    }

    ++llc_misses_;
    const Cycle issue = core.cycle() + outcome.onChipLatency;
    const DramCacheReadOutcome read =
        dram_cache_->read(issue, line, ref.pc, core_id);

    // Fill the L3 (misses fill all levels, Section 3.1); the DCP bit
    // records whether the line now also lives in the DRAM cache.  A
    // dirty victim becomes a writeback that issues when the fill data
    // arrives.
    if (auto wb = hierarchy_->fillLlc(line, ref.isWrite,
                                      read.presentAfter)) {
        wb->issuedAt = read.dataReady;
        wb_queue_.push_back(*wb);
        std::push_heap(wb_queue_.begin(), wb_queue_.end(),
                       IssuedLater{});
        wb_next_due_ = std::min(wb_next_due_, wb->issuedAt);
    }

    core.completeMiss(read.dataReady, ref.dependent);
}

void
System::run(std::uint64_t refs_per_core)
{
    // Event-ordered round-robin: always advance the core with the
    // smallest local clock that still has references left this run.
    const std::uint64_t total =
        refs_per_core * static_cast<std::uint64_t>(config_.cores);
    std::vector<std::uint64_t> quota(config_.cores, refs_per_core);

    // Job control works a block of references at a time: checkpoint
    // the cancel flag, then run the block.
    JobControl *const control = config_.control;
    for (std::uint64_t done = 0; done < total;) {
        const std::uint64_t block = std::min(kControlBlock, total - done);
        if (control) {
            const CancelReason why = control->cancelReason();
            if (why != CancelReason::None)
                throw JobCancelled{why, {}};
        }
        for (const std::uint64_t end = done + block; done < end; ++done) {
            CoreId best = config_.cores;
            Cycle earliest = ~Cycle{0};
            for (CoreId c = 0; c < config_.cores; ++c) {
                if (quota[c] == 0)
                    continue;
                if (cores_[c].nextReady() < earliest) {
                    earliest = cores_[c].nextReady();
                    best = c;
                }
            }
            bear_assert(best < config_.cores, "no runnable core");
            --quota[best];
            step(best);
        }
    }
    flushWritebacks(~Cycle{0});
}

void
System::resetStats()
{
    bloat_.reset();
    dram_cache_->resetStats();
    cache_dram_->resetStats();
    main_memory_->resetStats();
    hierarchy_->resetStats();
    for (auto &core : cores_)
        core.markEpoch();
    if (trace_)
        trace_->reset();
    demand_accesses_ = 0;
    llc_misses_ = 0;
}

SystemStats
System::stats() const
{
    SystemStats s;
    std::uint64_t instructions = 0;
    for (const auto &core : cores_) {
        s.ipcPerCore.push_back(core.ipcSinceEpoch());
        s.ipcTotal += core.ipcSinceEpoch();
        s.execCycles = std::max(s.execCycles, core.cyclesSinceEpoch());
        instructions += core.instructionsSinceEpoch();
    }

    s.l4HitRate = dram_cache_->hitRate();
    s.bloatFactor = bloat_.bloatFactor();
    for (std::size_t i = 0; i < BloatTracker::kCategories; ++i) {
        s.bloatBreakdown.push_back(
            bloat_.categoryFactor(static_cast<BloatCategory>(i)));
        s.bloatBytes.push_back(
            bloat_.bytes(static_cast<BloatCategory>(i)));
    }
    s.l4BytesTransferred = cache_dram_->totalBytesTransferred();
    s.memBytesTransferred = main_memory_->totalBytesTransferred();
    s.measuredMpki = instructions
        ? 1000.0 * static_cast<double>(llc_misses_)
            / static_cast<double>(instructions)
        : 0.0;
    s.sramOverheadBytes = dram_cache_->sramOverheadBytes();

    // Hit/miss latency: every design inherits these from the DramCache
    // read() wrapper, so no per-design downcasting is needed (this used
    // to be a dynamic_cast chain over all concrete designs).
    s.l4HitLatency = dram_cache_->avgHitLatency();
    s.l4MissLatency = dram_cache_->avgMissLatency();
    s.l4AvgLatency = s.l4HitRate * s.l4HitLatency
        + (1.0 - s.l4HitRate) * s.l4MissLatency;

    s.l4HitLatencyHist = dram_cache_->hitLatencyHistogram();
    s.l4MissLatencyHist = dram_cache_->missLatencyHistogram();
    s.l4QueueDelayHist = cache_dram_->queueDelayHistogram();
    s.memQueueDelayHist = main_memory_->queueDelayHistogram();
    s.l4WriteQueueDepthHist = cache_dram_->writeQueueDepthHistogram();
    s.l4Banks = cache_dram_->bankUtilization();

    if (trace_) {
        s.trace.enabled = true;
        s.trace.recorded = trace_->recorded();
        s.trace.dropped = trace_->dropped();
        s.trace.kindCounts.reserve(obs::kTraceEventKinds);
        for (std::size_t k = 0; k < obs::kTraceEventKinds; ++k) {
            s.trace.kindCounts.push_back(trace_->kindCount(
                static_cast<obs::TraceEventKind>(k)));
        }
    }
    return s;
}

} // namespace bear
