/**
 * @file
 * A multi-channel DRAM instance.
 *
 * DramSystem is used for both the stacked-DRAM cache array and the
 * conventional DDR main memory; the two differ only in their
 * DramGeometry.  It offers two addressing interfaces:
 *
 *  - address-mapped: a physical line address is interleaved across
 *    channels/banks/rows (used by main memory),
 *  - coordinate-mapped: the caller supplies (channel, bank, row)
 *    directly (used by the DRAM-cache designs, whose set layout
 *    dictates the physical placement of TADs within rows).
 */

#ifndef BEAR_MEM_DRAM_SYSTEM_HH
#define BEAR_MEM_DRAM_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/dram_channel.hh"
#include "mem/dram_config.hh"

namespace bear
{

/** Physical placement of an access inside a DramSystem. */
struct DramCoord
{
    std::uint32_t channel = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
};

/** One bank's activity snapshot, for reports and the bank sweep. */
struct BankUtilization
{
    std::uint32_t channel = 0;
    std::uint32_t bank = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowConflicts = 0;
    Cycles busyCycles{0};
    Cycles conflictStallCycles{0};
    /** busyCycles over the system's observed activity span (0..1+;
     *  pipelined row hits can push a hot bank past 1.0 briefly). */
    double utilization = 0.0;
};

/** Multi-channel DRAM with line-interleaved default address mapping. */
class DramSystem
{
  public:
    DramSystem(std::string name, const DramTiming &timing,
               const DramGeometry &geometry,
               const WriteQueuePolicy &wq = {});

    /** Map a physical line address to channel/bank/row (line interleave). */
    DramCoord mapLine(LineAddr line) const;

    /** Timed read at explicit coordinates. */
    DramResult read(Cycle at, const DramCoord &coord, Bytes volume);

    /** Posted write at explicit coordinates. */
    void write(Cycle at, const DramCoord &coord, Bytes volume);

    /** Timed read of a physical line address (64 bytes). */
    DramResult
    readLine(Cycle at, LineAddr line)
    {
        return read(at, mapLine(line), kLineSize);
    }

    /** Posted 64-byte write of a physical line address. */
    void
    writeLine(Cycle at, LineAddr line)
    {
        if (line_write_hook_)
            line_write_hook_(line);
        write(at, mapLine(line), kLineSize);
    }

    /**
     * Observe every line-addressed write (test instrumentation: the
     * correctness checker uses this to verify that dirty data is never
     * silently dropped).
     */
    void
    setLineWriteHook(std::function<void(LineAddr)> hook)
    {
        line_write_hook_ = std::move(hook);
    }

    const DramGeometry &geometry() const { return geometry_; }
    const std::string &name() const { return name_; }

    Bytes totalBytesTransferred() const;
    std::uint64_t totalRowHits() const;
    std::uint64_t totalReads() const;
    std::uint64_t totalWrites() const;

    /**
     * Per-bank activity snapshot since the last resetStats(), with
     * utilization computed against the busiest observed activity span
     * across all channels.  Ordered channel-major (flat bank id =
     * channel * banksPerChannel + bank).
     */
    std::vector<BankUtilization> bankUtilization() const;

    /** Read queueing-delay distribution, merged over channels. */
    obs::LatencyHistogram queueDelayHistogram() const;

    /** Write-queue depth distribution, merged over channels. */
    obs::DepthHistogram writeQueueDepthHistogram() const;

    /** Attach (or detach with nullptr) an event trace to every
     *  channel; flat bank ids in events are channel-major. */
    void setTrace(obs::EventTrace *trace);

    void resetStats();
    void drainAll(Cycle at);

  private:
    std::string name_;
    DramGeometry geometry_;
    std::vector<DramChannel> channels_;
    Lines linesPerRow_;
    std::function<void(LineAddr)> line_write_hook_;
};

} // namespace bear

#endif // BEAR_MEM_DRAM_SYSTEM_HH
