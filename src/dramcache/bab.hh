/**
 * @file
 * Bandwidth-Aware Bypass (paper Section 4).
 *
 * BAB uses Set Dueling to choose, for the bulk of the cache (the
 * follower sets), between the always-fill baseline and Probabilistic
 * Bypass (PB) with bypass probability P (default 90%).  Two sampling
 * monitors — 1/32nd of the sets each, mirroring the paper's
 * 512K-of-16M ratio — permanently run PB and baseline respectively.
 * Each monitor has a 16-bit access counter and a 16-bit miss counter;
 * when an access counter saturates, all four counters are halved and
 * the mode bit is re-evaluated: the followers use PB as long as PB's
 * miss rate exceeds the baseline's by less than Delta = (baseline hit
 * rate)/16, i.e. PB must preserve at least 15/16ths of the baseline
 * hit rate (Section 4.2).
 */

#ifndef BEAR_DRAMCACHE_BAB_HH
#define BEAR_DRAMCACHE_BAB_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"

namespace bear
{

/**
 * Tuning knobs for BAB.  Every named design in every run, paper-scale
 * (BEAR_FULL) included, uses these defaults: no RunnerOptions field or
 * BEAR_* knob reaches them, and only bench/ablation_bab's retention
 * sweep overrides one.
 */
struct BabConfig
{
    double bypassProbability = 0.9;
    /**
     * PB must keep this fraction of the baseline hit rate.  The paper
     * uses 15/16; the default here is 7/8 because scaled runs inflate
     * the PB monitor's transient miss rate (a bypassed line's refill
     * delay is a larger fraction of a short run), so the monitor
     * over-estimates PB's steady-state cost.
     */
    double hitRateRetention = 7.0 / 8.0;
    /** One in this many sets belongs to each sampling monitor. */
    std::uint32_t samplingRatio = 32;
    /**
     * Access-counter saturation point.  The paper uses 16-bit counters
     * (0xFFFF) on 1-billion-instruction runs; the default here
     * re-evaluates the mode every 4096 monitor accesses so that the
     * dueling adapts at the same rate *relative to run length* on
     * scaled runs.
     */
    std::uint16_t counterMax = 4096;
};

/** Set-dueling bypass controller. */
class BandwidthAwareBypass
{
  public:
    BandwidthAwareBypass(std::uint64_t sets, const BabConfig &config = {},
                         std::uint64_t seed = 0xBAB);

    /** Which dueling role a set plays. */
    enum class SetRole { FollowPb, FollowBaseline, Follower };

    SetRole roleOf(std::uint64_t set) const;

    /**
     * Should the fill of a miss to @p set be bypassed?  Called once
     * per demand miss; draws from the internal RNG for PB decisions.
     */
    bool shouldBypass(std::uint64_t set);

    /** Record the hit/miss outcome of a demand access to @p set. */
    void recordAccess(std::uint64_t set, bool hit);

    /** Followers currently use PB. */
    bool pbMode() const { return pb_mode_; }

    double pbMissRate() const;
    double baselineMissRate() const;

    std::uint64_t bypasses() const { return bypasses_; }

    /** SRAM cost: four 16-bit counters + the mode bit (Table 5). */
    std::uint64_t storageBits() const { return 4 * 16 + 1; }

    void resetStats() { bypasses_ = 0; }

  private:
    void maybeReevaluate();

    std::uint64_t sets_;
    BabConfig config_;
    Rng rng_;

    std::uint16_t pb_accesses_ = 0;
    std::uint16_t pb_misses_ = 0;
    std::uint16_t base_accesses_ = 0;
    std::uint16_t base_misses_ = 0;
    bool pb_mode_ = true;

    std::uint64_t bypasses_ = 0;
};

} // namespace bear

#endif // BEAR_DRAMCACHE_BAB_HH
