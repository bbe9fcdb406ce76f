/**
 * @file
 * Figure 17: speedup of the DRAM-cache designs — LH-cache, MC-cache,
 * baseline Alloy, inclusive Alloy, and BEAR — over a system with no
 * DRAM cache, for RATE / MIX / ALL.
 *
 * Paper: LH +27%, MC +30%, Alloy ~+46% (implied), Incl-Alloy +55%,
 * BEAR +66% — inclusion recovers the Writeback Probes but forfeits
 * fill bypassing, which is why BEAR stays ahead.
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
        "Figure 17", "All DRAM-cache designs vs no DRAM cache",
        "vs no-cache: LH +27%, MC +30%, Incl-Alloy +55%, BEAR +66%; "
        "order BEAR > Incl-Alloy > Alloy > MC > LH",
        options);

    const auto jobs = allJobs(DesignKind::NoCache, options);
    const Comparison cmp = compareDesigns(
        runner, jobs, DesignKind::NoCache,
        {DesignKind::LohHill, DesignKind::MostlyClean, DesignKind::Alloy,
         DesignKind::InclusiveAlloy, DesignKind::Bear});

    Table table({"set", "LH", "MC", "Alloy", "Incl-Alloy", "BEAR"});
    auto row = [&](const char *name, auto fn) {
        std::vector<std::string> cells{name};
        for (std::size_t d = 0; d < 5; ++d)
            cells.push_back(Table::num(fn(d), 3));
        table.addRow(std::move(cells));
    };
    row("RATE", [&](std::size_t d) { return cmp.rateGeomean(d); });
    row("MIX", [&](std::size_t d) { return cmp.mixGeomean(d); });
    row("ALL", [&](std::size_t d) { return cmp.allGeomean(d); });
    std::printf("%s\n", table.render().c_str());

    std::printf("Per-workload detail:\n");
    printSpeedupTable(cmp);
    return exitStatus(cmp);
}
