/**
 * @file
 * Table 4: DRAM-cache hit rate and latency, Alloy vs BEAR.
 *
 * Paper values: hit rate 63.2% -> 61.0%; hit latency 239 -> 182
 * cycles (-24%); miss latency 391 -> 356; average 326 -> 282.
 */

#include <cmath>

#include "bench/bench_util.hh"

using namespace bear;
using namespace bear::bench;

int
main()
{
    RunnerOptions options = RunnerOptions::fromEnv();
    Runner runner(options);
    printExperimentHeader(
        "Table 4", "DRAM-cache hit rate and latency: Alloy vs BEAR",
        "hit rate 63.2%->61.0%; hit latency 239->182 (-24%); miss "
        "391->356; average 326->282",
        options);

    const auto jobs = allJobs(DesignKind::Alloy, options);
    const Comparison cmp =
        compareDesigns(runner, jobs, DesignKind::Alloy, {DesignKind::Bear});

    Table table({"design", "HitRate%", "HitLat", "MissLat", "AvgLat"});
    auto row = [&](const char *name, int d) {
        table.addRow(
            {name,
             Table::num(averageOver(cmp.rows, d,
                                    [](const RunResult &r) {
                                        return 100 * r.stats.l4HitRate;
                                    }),
                        1),
             Table::num(averageOver(cmp.rows, d,
                                    [](const RunResult &r) {
                                        return r.stats.l4HitLatency;
                                    }),
                        0),
             Table::num(averageOver(cmp.rows, d,
                                    [](const RunResult &r) {
                                        return r.stats.l4MissLatency;
                                    }),
                        0),
             Table::num(averageOver(cmp.rows, d,
                                    [](const RunResult &r) {
                                        return r.stats.l4AvgLatency;
                                    }),
                        0)});
    };
    row("Alloy", -1);
    row("BEAR", 0);
    std::printf("%s\n", table.render().c_str());

    // The same latencies as distributions (workload-averaged log2-
    // bucket percentiles).  The histogram mean is exact, so "drift"
    // against the legacy scalar is a self-check that must stay ~0.
    Table dist({"design", "hit p50", "hit p95", "hit p99", "miss p95",
                "hist mean", "scalar", "drift%"});
    auto pct = [&](int d, double q) {
        return averageOver(cmp.rows, d, [q](const RunResult &r) {
            return static_cast<double>(
                r.stats.l4HitLatencyHist.percentile(q).count());
        });
    };
    auto distRow = [&](const char *name, int d) {
        const double mean =
            averageOver(cmp.rows, d, [](const RunResult &r) {
                return r.stats.l4HitLatencyHist.mean();
            });
        const double scalar =
            averageOver(cmp.rows, d, [](const RunResult &r) {
                return r.stats.l4HitLatency;
            });
        const double drift =
            scalar > 0.0 ? 100.0 * std::abs(mean - scalar) / scalar : 0.0;
        dist.addRow(
            {name, Table::num(pct(d, 0.50), 0),
             Table::num(pct(d, 0.95), 0), Table::num(pct(d, 0.99), 0),
             Table::num(
                 averageOver(cmp.rows, d,
                             [](const RunResult &r) {
                                 return static_cast<double>(
                                     r.stats.l4MissLatencyHist
                                         .percentile(0.95)
                                         .count());
                             }),
                 0),
             Table::num(mean, 1), Table::num(scalar, 1),
             Table::num(drift, 3)});
    };
    std::printf("Hit-latency distribution (cycles):\n");
    distRow("Alloy", -1);
    distRow("BEAR", 0);
    std::printf("%s\n", dist.render().c_str());

    const double alloy_lat = averageOver(
        cmp.rows, -1,
        [](const RunResult &r) { return r.stats.l4HitLatency; });
    const double bear_lat = averageOver(
        cmp.rows, 0,
        [](const RunResult &r) { return r.stats.l4HitLatency; });
    std::printf("Hit latency reduction: %.1f%% (paper: 24%%)\n",
                100.0 * (alloy_lat - bear_lat) / alloy_lat);
    return exitStatus(cmp);
}
