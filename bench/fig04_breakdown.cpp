/**
 * @file
 * Figure 4: where the bandwidth goes — per-category Bloat Factor
 * breakdown of the baseline Alloy Cache against BW-Opt, plus the
 * potential performance of eliminating all secondary traffic.
 *
 * Paper values: Alloy = Hit 1.25 + MissProbe 0.67 + MissFill 0.67 +
 * WbProbe 0.57 + WbUpdate 0.57 ~= 3.8x total; BW-Opt = 1.0x; potential
 * speedup 22%.
 */

#include "bench/bench_util.hh"
#include "dramcache/bloat.hh"

using namespace bear;
using namespace bear::bench;

int
main()
{
    RunnerOptions options = RunnerOptions::fromEnv();
    Runner runner(options);
    printExperimentHeader(
        "Figure 4", "Bandwidth breakdown: Alloy vs BW-Opt",
        "Alloy 3.8x total (Hit 1.25, MissProbe 0.67, MissFill 0.67, "
        "WbProbe 0.57, WbUpdate 0.57); BW-Opt 1.0x; potential +22%",
        options);

    const auto jobs = allJobs(DesignKind::Alloy, options);
    const Comparison cmp = compareDesigns(runner, jobs, DesignKind::Alloy,
                                          {DesignKind::BwOptimized});

    Table table({"category", "Alloy", "BW-Opt"});
    for (std::size_t c = 0; c < BloatTracker::kCategories; ++c) {
        auto factor = [c](const RunResult &r) {
            return r.stats.bloatBreakdown[c];
        };
        table.addRow({bloatCategoryName(static_cast<BloatCategory>(c)),
                      Table::num(averageOver(cmp.rows, -1, factor), 2),
                      Table::num(averageOver(cmp.rows, 0, factor), 2)});
    }
    auto total = [](const RunResult &r) { return r.stats.bloatFactor; };
    table.addRow({"TOTAL",
                  Table::num(averageOver(cmp.rows, -1, total), 2),
                  Table::num(averageOver(cmp.rows, 0, total), 2)});
    std::printf("%s\n", table.render().c_str());

    std::printf("Potential performance (BW-Opt over Alloy): %.3fx "
                "(paper: 1.22x)\n",
                cmp.allGeomean(0));
    return exitStatus(cmp);
}
