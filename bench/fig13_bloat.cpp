/**
 * @file
 * Figure 13: Bloat Factor breakdown for (a) Alloy, (b) BAB,
 * (c) BAB+DCP, (d) BEAR, (e) BW-Opt, over RATE / MIX / ALL.
 *
 * Paper: BEAR cuts the Alloy Cache's Bloat Factor by 32% — BAB removes
 * most Miss Fill traffic, DCP most Writeback Probes, NTC most Miss
 * Probes; BW-Opt is 1.0 by construction.
 */

#include "bench/bench_util.hh"
#include "dramcache/bloat.hh"

using namespace bear;
using namespace bear::bench;

namespace
{

void
printBreakdown(const char *set_name,
               const std::vector<ComparisonRow> &rows,
               const std::vector<std::string> &designs)
{
    std::printf("--- %s ---\n", set_name);
    std::vector<std::string> headers{"category", "Alloy"};
    for (const auto &d : designs)
        headers.push_back(d);
    Table table(std::move(headers));
    for (std::size_t c = 0; c < BloatTracker::kCategories; ++c) {
        auto factor = [c](const RunResult &r) {
            return r.stats.bloatBreakdown[c];
        };
        std::vector<std::string> cells{
            bloatCategoryName(static_cast<BloatCategory>(c)),
            Table::num(averageOver(rows, -1, factor), 2)};
        for (std::size_t d = 0; d < designs.size(); ++d)
            cells.push_back(Table::num(
                averageOver(rows, static_cast<int>(d), factor), 2));
        table.addRow(std::move(cells));
    }
    auto total = [](const RunResult &r) { return r.stats.bloatFactor; };
    std::vector<std::string> cells{
        "TOTAL", Table::num(averageOver(rows, -1, total), 2)};
    for (std::size_t d = 0; d < designs.size(); ++d)
        cells.push_back(
            Table::num(averageOver(rows, static_cast<int>(d), total), 2));
    table.addRow(std::move(cells));
    std::printf("%s\n", table.render().c_str());
}

} // namespace

int
main()
{
    RunnerOptions options = RunnerOptions::fromEnv();
    Runner runner(options);
    printExperimentHeader(
        "Figure 13", "Bloat Factor breakdown across BEAR's components",
        "BEAR reduces Alloy's Bloat Factor by 32%; BAB targets "
        "MissFill, DCP targets WbProbe, NTC targets MissProbe",
        options);

    const auto jobs = allJobs(DesignKind::Alloy, options);
    const Comparison cmp = compareDesigns(
        runner, jobs, DesignKind::Alloy,
        {DesignKind::Bab, DesignKind::BabDcp, DesignKind::Bear,
         DesignKind::BwOptimized});

    std::vector<ComparisonRow> rate_rows, mix_rows;
    for (const auto &row : cmp.rows)
        (row.isMix ? mix_rows : rate_rows).push_back(row);

    printBreakdown("RATE", rate_rows, cmp.designs);
    printBreakdown("MIX", mix_rows, cmp.designs);
    printBreakdown("ALL", cmp.rows, cmp.designs);

    auto total = [](const RunResult &r) { return r.stats.bloatFactor; };
    const double alloy = averageOver(cmp.rows, -1, total);
    const double bear = averageOver(cmp.rows, 2, total);
    std::printf("Bloat reduction BEAR vs Alloy: %.1f%% (paper: 32%%)\n",
                100.0 * (alloy - bear) / alloy);
    return exitStatus(cmp);
}
