/**
 * @file
 * Shared presentation helpers for the per-figure benchmark binaries.
 *
 * Every binary in bench/ regenerates one table or figure of the paper
 * (see DESIGN.md's experiment index): it runs the relevant designs
 * over the relevant workloads through the memoising Runner, prints the
 * same rows/series the paper reports, and restates the paper's claim
 * next to the measured values so EXPERIMENTS.md can be assembled from
 * the raw output.
 */

#ifndef BEAR_BENCH_BENCH_UTIL_HH
#define BEAR_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/table.hh"
#include "sim/experiment.hh"

namespace bear::bench
{

/**
 * Per-workload normalised speedups plus RATE/MIX/ALL geomeans.
 * Failed cells (DESIGN.md §11) render as FAIL; the geomeans cover the
 * completed cells, so one crashed job still yields a usable — clearly
 * partial — table.
 */
inline void
printSpeedupTable(const Comparison &cmp)
{
    std::vector<std::string> headers{"workload"};
    for (const auto &d : cmp.designs)
        headers.push_back(d);
    Table table(std::move(headers));
    for (const auto &row : cmp.rows) {
        std::vector<std::string> cells{row.workload};
        for (double s : row.speedups)
            cells.push_back(std::isnan(s) ? "FAIL" : Table::num(s, 3));
        table.addRow(std::move(cells));
    }
    auto aggregate = [&](const char *name, auto fn) {
        std::vector<std::string> cells{name};
        for (std::size_t d = 0; d < cmp.designs.size(); ++d)
            cells.push_back(Table::num(fn(d), 3));
        table.addRow(std::move(cells));
    };
    bool has_rate = false, has_mix = false;
    for (const auto &row : cmp.rows) {
        has_rate |= !row.isMix;
        has_mix |= row.isMix;
    }
    if (has_rate)
        aggregate("GEOMEAN-RATE",
                  [&](std::size_t d) { return cmp.rateGeomean(d); });
    if (has_mix)
        aggregate("GEOMEAN-MIX",
                  [&](std::size_t d) { return cmp.mixGeomean(d); });
    aggregate("GEOMEAN-ALL",
              [&](std::size_t d) { return cmp.allGeomean(d); });
    std::printf("%s\n", table.render().c_str());
    if (!cmp.complete()) {
        std::printf("PARTIAL: %zu cell(s) failed; FAIL cells excluded "
                    "from geomeans (details on stderr)\n",
                    cmp.failedCells());
    }
}

/**
 * Average a SystemStats field over a set of runs, skipping failed
 * cells (their default-constructed RunResult would silently drag the
 * average toward zero).
 */
template <typename Getter>
double
averageOver(const std::vector<ComparisonRow> &rows, int design_idx,
            Getter getter)
{
    double sum = 0.0;
    std::size_t counted = 0;
    for (const auto &row : rows) {
        if (design_idx < 0 ? !row.baselineOk
                           : !row.errors[design_idx].empty())
            continue;
        const RunResult &r =
            design_idx < 0 ? row.baseline : row.runs[design_idx];
        sum += getter(r);
        ++counted;
    }
    return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

/**
 * RunnerOptions::fromEnv() for the ablation binaries.  They build
 * their own Systems from live generators instead of running jobs
 * through the Runner, so of the knobs they honor only BEAR_FULL,
 * BEAR_SCALE, BEAR_WARMUP and BEAR_MEASURE; a replay corpus is an
 * error before any simulation rather than silently ignored.
 */
inline RunnerOptions
ablationOptionsFromEnv()
{
    RunnerOptions options = RunnerOptions::fromEnv();
    if (!options.traceInPath.empty()) {
        bear_fatal("BEAR_TRACE_IN=", options.traceInPath,
                   ": ablation binaries generate their own streams and "
                   "cannot replay a trace");
    }
    return options;
}

/** Bandwidth-sensitive subset for the sensitivity sweeps: the eight
 *  most memory-intensive rate benchmarks (Table 2's top rows). */
inline std::vector<RunJob>
sensitivityJobs(DesignKind design)
{
    const char *names[] = {"mcf", "lbm", "soplex", "milc", "libquantum",
                           "omnetpp", "bwaves", "gcc"};
    std::vector<RunJob> jobs;
    for (const char *name : names) {
        RunJob job;
        job.design = design;
        job.rateBenchmark = name;
        jobs.push_back(job);
    }
    return jobs;
}

} // namespace bear::bench

#endif // BEAR_BENCH_BENCH_UTIL_HH
