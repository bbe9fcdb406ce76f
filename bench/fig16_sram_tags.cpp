/**
 * @file
 * Figure 16: BEAR against SRAM-tag organisations — the idealised
 * Tags-In-SRAM design (64 MB of SRAM) and the Sector Cache (6 MB):
 * L4 hit rate, hit latency, miss latency, Bloat Factor, and speedup,
 * all relative to the Alloy baseline.
 *
 * Paper: TIS raises the hit rate only modestly (63% -> 68%); BEAR
 * (+10.1%) outperforms TIS (+7.5%) and SC (-18%), at 20 KB of SRAM
 * instead of 64 MB / 6 MB.
 *
 * The FC column is our extension: the Footprint Cache of the paper's
 * Section 9.1 (SC + footprint prefetching), included to test the
 * paper's conjecture that prefetching raises SC's hit rate at the
 * price of extra fill bandwidth.
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
        "Figure 16", "BEAR vs Tags-In-SRAM and Sector Cache",
        "speedup vs Alloy: BEAR +10.1%, TIS +7.5%, SC -18%; TIS hit "
        "rate 68% vs Alloy 63%; SRAM cost 20KB vs 64MB vs 6MB",
        options);

    const auto jobs = allJobs(DesignKind::Alloy, options);
    const Comparison cmp = compareDesigns(
        runner, jobs, DesignKind::Alloy,
        {DesignKind::Bear, DesignKind::TagsInSram,
         DesignKind::SectorCache, DesignKind::FootprintCache});

    Table table({"metric", "Alloy", "BEAR", "TIS", "SC", "FC"});
    auto stat_row = [&](const char *name, auto getter, int precision) {
        std::vector<std::string> cells{name};
        for (int d = -1; d < 4; ++d)
            cells.push_back(
                Table::num(averageOver(cmp.rows, d, getter), precision));
        table.addRow(std::move(cells));
    };
    stat_row("(a) L4 hit rate (%)",
             [](const RunResult &r) { return 100 * r.stats.l4HitRate; },
             1);
    stat_row("(b) L4 hit latency",
             [](const RunResult &r) { return r.stats.l4HitLatency; }, 0);
    stat_row("(c) L4 miss latency",
             [](const RunResult &r) { return r.stats.l4MissLatency; }, 0);
    stat_row("(d) Bloat Factor",
             [](const RunResult &r) { return r.stats.bloatFactor; }, 2);
    std::vector<std::string> speedup{"(e) Speedup vs Alloy", "1.000"};
    for (std::size_t d = 0; d < 4; ++d)
        speedup.push_back(Table::num(cmp.allGeomean(d), 3));
    table.addRow(std::move(speedup));
    std::vector<std::string> sram{"SRAM overhead (bytes)"};
    for (int d = -1; d < 4; ++d) {
        const auto bytes = static_cast<std::uint64_t>(averageOver(
            cmp.rows, d,
            [](const RunResult &r) {
                return r.stats.sramOverheadBytes.toDouble();
            }));
        sram.push_back(std::to_string(bytes));
    }
    table.addRow(std::move(sram));
    std::printf("%s\n", table.render().c_str());
    return exitStatus(cmp);
}
