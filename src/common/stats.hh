/**
 * @file
 * Summary statistics over finished runs.
 *
 * Per-access distributions live in obs/histogram.hh; this header keeps
 * the one aggregate the reports take over runs: the geometric mean of
 * normalised speedups.
 */

#ifndef BEAR_COMMON_STATS_HH
#define BEAR_COMMON_STATS_HH

#include <vector>

namespace bear
{

/** Geometric mean of a vector of positive values; 0 if empty. */
double geomean(const std::vector<double> &values);

} // namespace bear

#endif // BEAR_COMMON_STATS_HH
