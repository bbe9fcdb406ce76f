/**
 * @file
 * Figure 3: Loh-Hill vs Alloy vs BW-Optimized — Bloat Factor, DRAM
 * cache hit latency, and speedup over a system with no DRAM cache.
 *
 * Paper values: Bloat Factor 7.3x (LH) and 3.8x (Alloy) vs 1.0
 * (BW-Opt); hit latency 409 / 239 / 97 cycles; BW-Opt clearly fastest.
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
        "Figure 3", "Bloat Factor, hit latency, speedup of LH/Alloy/OPT",
        "BloatFactor LH=7.3x AL=3.8x OPT=1.0x; hit latency 409/239/97 "
        "cycles; speedup order OPT > AL > LH",
        options);

    const auto jobs = allJobs(DesignKind::NoCache, options);
    const Comparison cmp = compareDesigns(
        runner, jobs, DesignKind::NoCache,
        {DesignKind::LohHill, DesignKind::Alloy,
         DesignKind::BwOptimized});

    Table table({"metric", "LH", "Alloy", "BW-Opt"});
    auto stat_row = [&](const char *name, auto getter, int precision) {
        std::vector<std::string> cells{name};
        for (int d = 0; d < 3; ++d)
            cells.push_back(
                Table::num(averageOver(cmp.rows, d, getter), precision));
        table.addRow(std::move(cells));
    };
    stat_row("(a) Bloat Factor",
             [](const RunResult &r) { return r.stats.bloatFactor; }, 2);
    stat_row("(b) Hit latency (cycles)",
             [](const RunResult &r) { return r.stats.l4HitLatency; }, 0);
    std::vector<std::string> speedup{"(c) Speedup vs no-DRAM-cache"};
    for (std::size_t d = 0; d < 3; ++d)
        speedup.push_back(Table::num(cmp.allGeomean(d), 3));
    table.addRow(std::move(speedup));
    std::printf("%s\n", table.render().c_str());

    std::printf("Per-workload speedups over the no-DRAM-cache system:\n");
    printSpeedupTable(cmp);
    return exitStatus(cmp);
}
