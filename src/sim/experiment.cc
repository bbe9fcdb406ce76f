#include "sim/experiment.hh"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/log.hh"
#include "common/stats.hh"
#include "sim/report.hh"

namespace bear
{

namespace
{

double
subsetGeomean(const Comparison &cmp, std::size_t idx, int want_mix)
{
    std::vector<double> values;
    for (const auto &row : cmp.rows) {
        if (want_mix >= 0 && row.isMix != (want_mix == 1))
            continue;
        // Failed cells carry NaN; the geomean covers what completed.
        if (std::isnan(row.speedups[idx]))
            continue;
        values.push_back(row.speedups[idx]);
    }
    return geomean(values);
}

} // namespace

double
Comparison::rateGeomean(std::size_t idx) const
{
    return subsetGeomean(*this, idx, 0);
}

double
Comparison::mixGeomean(std::size_t idx) const
{
    return subsetGeomean(*this, idx, 1);
}

double
Comparison::allGeomean(std::size_t idx) const
{
    return subsetGeomean(*this, idx, -1);
}

int
exitStatus(const Comparison &cmp)
{
    if (cmp.failures.empty())
        return 0;
    for (const RunError &err : cmp.failures) {
        if (err.kind == RunErrorKind::Interrupted)
            return 130;
    }
    return 3;
}

std::vector<RunJob>
retarget(std::vector<RunJob> jobs, DesignKind design)
{
    for (auto &job : jobs)
        job.design = design;
    return jobs;
}

Comparison
compareDesigns(Runner &runner, const std::vector<RunJob> &jobs,
               DesignKind baseline, const std::vector<DesignKind> &configs)
{
    // Schedule every (design, workload) pair in one batch so the
    // runner's thread pool covers the whole experiment.
    std::vector<RunJob> batch = retarget(jobs, baseline);
    for (const DesignKind design : configs) {
        const auto retargeted = retarget(jobs, design);
        batch.insert(batch.end(), retargeted.begin(), retargeted.end());
    }
    const std::vector<RunOutcome> outcomes = runner.runAll(batch);

    Comparison cmp;
    for (const DesignKind design : configs)
        cmp.designs.push_back(designName(design));

    constexpr double kFailed = std::numeric_limits<double>::quiet_NaN();
    const std::size_t n = jobs.size();
    for (std::size_t w = 0; w < n; ++w) {
        ComparisonRow row;
        // Name the row from the job, not the result: a failed baseline
        // has no result to name it after.
        row.workload =
            jobs[w].mix ? jobs[w].mix->name : jobs[w].rateBenchmark;
        row.isMix = jobs[w].mix != nullptr;
        const RunOutcome &base = outcomes[w];
        if (base.hasValue()) {
            row.baseline = *base;
        } else {
            row.baselineOk = false;
            row.baselineError = base.error().message();
            cmp.failures.push_back(base.error());
        }
        for (std::size_t d = 0; d < configs.size(); ++d) {
            const RunOutcome &run = outcomes[(d + 1) * n + w];
            if (run.hasValue()) {
                row.runs.push_back(*run);
                row.errors.emplace_back();
                row.speedups.push_back(
                    row.baselineOk
                        ? normalizedSpeedup(row.baseline, *run)
                        : kFailed);
            } else {
                row.runs.emplace_back();
                row.errors.push_back(run.error().message());
                row.speedups.push_back(kFailed);
                cmp.failures.push_back(run.error());
            }
        }
        cmp.rows.push_back(std::move(row));
    }

    if (!cmp.failures.empty()) {
        bear_warn(cmp.failures.size(), " of ", outcomes.size(),
                  " cells failed; the table below is partial");
        for (const RunError &err : cmp.failures)
            bear_warn("  ", err.message());
    }

    // Machine-readable mirror of the printed tables (BEAR_JSON=path).
    maybeWriteJsonReport(comparisonToJson("compareDesigns", cmp));
    return cmp;
}

void
printExperimentHeader(const std::string &id, const std::string &title,
                      const std::string &paper_claim,
                      const RunnerOptions &options)
{
    std::printf("==========================================================="
                "=====================\n");
    std::printf("%s: %s\n", id.c_str(), title.c_str());
    std::printf("Paper: %s\n", paper_claim.c_str());
    std::printf("Model: scale=%.4g warmup=%llu measure=%llu refs/core, "
                "%u cores\n",
                options.scale,
                static_cast<unsigned long long>(options.warmupRefsPerCore),
                static_cast<unsigned long long>(
                    options.measureRefsPerCore),
                options.cores);
    std::printf("==========================================================="
                "=====================\n");
}

} // namespace bear
