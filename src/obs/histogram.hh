/**
 * @file
 * Dimension-typed latency/bandwidth histograms.
 *
 * The paper's whole argument is distributional — bandwidth bloat per
 * category (Figure 4/13), hit vs. miss latency (Table 4), bank
 * contention (Figure 15) — so reducing a run to scalar averages hides
 * exactly the effects BEAR exists to fix.  Histogram<Unit> records a
 * full log2-bucketed distribution of any strong-typed quantity from
 * common/units.hh (Cycles, Bytes, Count, ...) while still tracking the
 * exact sum and count, so mean() is the exact scalar average: the
 * report's mean latencies are read off the same histograms as their
 * percentiles.
 *
 * The dimension discipline of units.hh extends here: sample() accepts
 * only the histogram's own unit, so `Histogram<Cycles>` rejects a
 * Bytes insert at compile time (tests/compile_fail/
 * histogram_wrong_unit.cc is the negative proof).
 *
 * Histograms are trivially copyable PODs of fixed size, so snapshots
 * into SystemStats are plain copies, and merge() makes per-channel or
 * per-workload distributions composable (percentiles of a merged
 * histogram are exact at bucket resolution, unlike averaged
 * percentiles).
 */

#ifndef BEAR_OBS_HISTOGRAM_HH
#define BEAR_OBS_HISTOGRAM_HH

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/units.hh"

namespace bear::obs
{

/** Log2-bucketed distribution of a strong-typed quantity. */
template <typename Unit>
class Histogram
{
  public:
    /** Bucket i holds raw values in [2^i, 2^(i+1)); bucket 0 also
     *  holds 0, the last bucket absorbs every larger value. */
    static constexpr int kBuckets = 48;

    using rep = std::uint64_t;

    void
    sample(Unit v)
    {
        const rep raw = v.count();
        ++buckets_[bucketOf(raw)];
        ++count_;
        sum_ += raw;
        min_ = count_ == 1 ? raw : std::min(min_, raw);
        max_ = std::max(max_, raw);
    }

    /** Fold @p other into this histogram (same-unit only). */
    void
    merge(const Histogram &other)
    {
        if (other.count_ == 0)
            return;
        for (int i = 0; i < kBuckets; ++i)
            buckets_[i] += other.buckets_[i];
        min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
        count_ += other.count_;
        sum_ += other.sum_;
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        count_ = 0;
        sum_ = 0;
        min_ = 0;
        max_ = 0;
    }

    rep count() const { return count_; }
    Unit total() const { return Unit{sum_}; }
    Unit min() const { return Unit{min_}; }
    Unit max() const { return Unit{max_}; }
    rep bucketCount(int i) const { return buckets_[i]; }

    /** Exact mean of the raw samples (0 when empty). */
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_)
                / static_cast<double>(count_)
            : 0.0;
    }

    /**
     * Smallest value v such that at least a fraction @p q of the
     * samples satisfy sample <= v, at log2-bucket resolution, tightened
     * by the observed maximum.  q <= 0 returns min(), q >= 1 max().
     */
    Unit
    percentile(double q) const
    {
        if (count_ == 0)
            return Unit{0};
        if (q <= 0.0)
            return Unit{min_};
        if (q >= 1.0)
            return Unit{max_};
        const double want = q * static_cast<double>(count_);
        rep seen = 0;
        for (int i = 0; i < kBuckets; ++i) {
            seen += buckets_[i];
            if (static_cast<double>(seen) >= want)
                return Unit{std::min(bucketHigh(i), max_)};
        }
        return Unit{max_};
    }

    /**
     * Reconstitute a histogram from its serialised raw fields — the
     * inverse of reading bucketCount()/count()/total()/min()/max().
     * Used by the results journal (sim/journal.cc) to restore a
     * distribution bit-exactly, so a resumed sweep's JSON report is
     * byte-identical to an uninterrupted run's.
     */
    static Histogram
    fromRaw(const rep (&buckets)[kBuckets], rep count, rep sum, rep min,
            rep max)
    {
        Histogram h;
        for (int i = 0; i < kBuckets; ++i)
            h.buckets_[i] = buckets[i];
        h.count_ = count;
        h.sum_ = sum;
        h.min_ = min;
        h.max_ = max;
        return h;
    }

    /** Inclusive lower edge of bucket @p i in raw units. */
    static constexpr rep
    bucketLow(int i)
    {
        return i == 0 ? 0 : rep{1} << i;
    }

    /** Inclusive upper edge of bucket @p i in raw units. */
    static constexpr rep
    bucketHigh(int i)
    {
        return i >= kBuckets - 1 ? ~rep{0} : (rep{1} << (i + 1)) - 1;
    }

  private:
    static constexpr int
    bucketOf(rep raw)
    {
        if (raw <= 1)
            return 0;
        const int top = static_cast<int>(std::bit_width(raw)) - 1;
        return std::min(top, kBuckets - 1);
    }

    rep buckets_[kBuckets] = {};
    rep count_ = 0;
    rep sum_ = 0;
    rep min_ = 0;
    rep max_ = 0;
};

/** Latency distributions (CPU-cycle durations). */
using LatencyHistogram = Histogram<Cycles>;

/** Traffic-volume distributions. */
using VolumeHistogram = Histogram<Bytes>;

/** Occupancy/queue-depth distributions. */
using DepthHistogram = Histogram<Count>;

static_assert(std::is_trivially_copyable_v<LatencyHistogram>,
              "histograms must snapshot by plain copy");

} // namespace bear::obs

#endif // BEAR_OBS_HISTOGRAM_HH
