/**
 * @file
 * Figure 12: overall performance — Alloy vs BEAR vs the idealized
 * BW-Optimized cache, per workload plus RATE / MIX / ALL geomeans.
 *
 * Paper: BEAR +10.1% over Alloy on average; BW-Opt roughly doubles
 * that (+22%); BEAR even beats BW-Opt on a few thrash-prone workloads
 * where Adaptive Fill raises the hit rate.
 */

#include "bench/bench_util.hh"

using namespace bear;
using namespace bear::bench;

int
main()
{
    RunnerOptions options = RunnerOptions::fromEnv();
    Runner runner(options);
    printExperimentHeader(
        "Figure 12", "Overall: Alloy vs BEAR vs BW-Optimized",
        "BEAR +10.1% over Alloy (ALL54 geomean); BW-Opt ~+22%",
        options);

    const auto jobs = allJobs(DesignKind::Alloy, options);
    const Comparison cmp = compareDesigns(
        runner, jobs, DesignKind::Alloy,
        {DesignKind::Bear, DesignKind::BwOptimized});
    printSpeedupTable(cmp);
    return exitStatus(cmp);
}
