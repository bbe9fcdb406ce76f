/** @file Unit tests for metrics, the runner, and experiment helpers. */

#include <cstdlib>

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"

using namespace bear;

namespace
{

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.scale = 0.015625;
    options.warmupRefsPerCore = 30000;
    options.measureRefsPerCore = 15000;
    options.workers = 1;
    return options;
}

} // namespace

TEST(Metrics, RateSpeedupIsTimeRatio)
{
    RunResult base, config;
    base.workload = config.workload = "x";
    base.stats.execCycles = 2000;
    config.stats.execCycles = 1000;
    EXPECT_DOUBLE_EQ(rateSpeedup(base, config), 2.0);
    EXPECT_DOUBLE_EQ(normalizedSpeedup(base, config), 2.0);
}

TEST(Metrics, WeightedSpeedupEquationTwo)
{
    RunResult run;
    run.isMix = true;
    run.stats.ipcPerCore = {1.0, 0.5};
    run.ipcAlone = {2.0, 1.0};
    EXPECT_DOUBLE_EQ(weightedSpeedup(run), 1.0);
}

TEST(Metrics, NormalizedMixSpeedupIsWsRatio)
{
    RunResult base, config;
    base.workload = config.workload = "MIXX";
    base.isMix = config.isMix = true;
    base.stats.ipcPerCore = {1.0};
    base.ipcAlone = {2.0};
    config.stats.ipcPerCore = {1.5};
    config.ipcAlone = {2.0};
    EXPECT_DOUBLE_EQ(normalizedSpeedup(base, config), 1.5);
}

TEST(MetricsDeath, MismatchedWorkloadsRejected)
{
    RunResult a, b;
    a.workload = "one";
    b.workload = "two";
    a.stats.execCycles = b.stats.execCycles = 1;
    EXPECT_DEATH(normalizedSpeedup(a, b), "same workload");
}

TEST(Runner, RateRunProducesStats)
{
    Runner runner(fastOptions());
    const RunResult r = runner.runRate(DesignKind::Alloy, "wrf");
    EXPECT_EQ(r.workload, "wrf");
    EXPECT_EQ(r.design, "Alloy");
    EXPECT_FALSE(r.isMix);
    EXPECT_GT(r.stats.ipcTotal, 0.0);
    EXPECT_EQ(r.stats.ipcPerCore.size(), 8u);
}

TEST(Runner, ResultsAreMemoised)
{
    Runner runner(fastOptions());
    const RunResult a = runner.runRate(DesignKind::Alloy, "wrf");
    const RunResult b = runner.runRate(DesignKind::Alloy, "wrf");
    EXPECT_EQ(a.stats.execCycles, b.stats.execCycles);
}

TEST(Runner, MixRunCarriesIpcAlone)
{
    Runner runner(fastOptions());
    const MixSpec &mix = tableThreeMixes().front();
    const RunResult r = runner.runMix(DesignKind::Alloy, mix);
    EXPECT_TRUE(r.isMix);
    ASSERT_EQ(r.ipcAlone.size(), 8u);
    for (double ipc : r.ipcAlone)
        EXPECT_GT(ipc, 0.0);
    EXPECT_GT(weightedSpeedup(r), 0.0);
}

TEST(Runner, JobOverridesApply)
{
    Runner runner(fastOptions());
    RunJob job;
    job.design = DesignKind::Alloy;
    job.rateBenchmark = "wrf";
    job.totalBanks = 128;
    const RunResult a = runner.run(job);
    job.totalBanks = 0; // default 64
    const RunResult b = runner.run(job);
    EXPECT_NE(a.stats.execCycles, b.stats.execCycles);
}

TEST(Runner, RunAllPreservesJobOrder)
{
    Runner runner(fastOptions());
    std::vector<RunJob> jobs;
    for (const char *name : {"wrf", "bzip2"}) {
        RunJob job;
        job.design = DesignKind::Alloy;
        job.rateBenchmark = name;
        jobs.push_back(job);
    }
    const auto results = runner.runAll(jobs);
    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[0].hasValue());
    ASSERT_TRUE(results[1].hasValue());
    EXPECT_EQ(results[0]->workload, "wrf");
    EXPECT_EQ(results[1]->workload, "bzip2");
}

TEST(Experiment, JobBuilders)
{
    EXPECT_EQ(rateJobs(DesignKind::Bear).size(), 16u);
    EXPECT_EQ(mixJobs(DesignKind::Bear).size(), 8u);
    const auto all = allJobs(DesignKind::Bear, RunnerOptions{});
    EXPECT_GE(all.size(), 24u);
    for (const auto &job : all)
        EXPECT_EQ(job.design, DesignKind::Bear);
}

TEST(Experiment, RetargetChangesDesignOnly)
{
    auto jobs = rateJobs(DesignKind::Alloy);
    const auto retargeted = retarget(jobs, DesignKind::Bear);
    ASSERT_EQ(retargeted.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(retargeted[i].design, DesignKind::Bear);
        EXPECT_EQ(retargeted[i].rateBenchmark, jobs[i].rateBenchmark);
    }
}

TEST(Experiment, CompareDesignsNormalisesAgainstBaseline)
{
    Runner runner(fastOptions());
    std::vector<RunJob> jobs;
    RunJob job;
    job.rateBenchmark = "wrf";
    jobs.push_back(job);
    const Comparison cmp = compareDesigns(
        runner, jobs, DesignKind::Alloy, {DesignKind::Alloy});
    ASSERT_EQ(cmp.rows.size(), 1u);
    // Alloy vs Alloy: identical memoised runs, speedup exactly 1.
    EXPECT_DOUBLE_EQ(cmp.rows[0].speedups[0], 1.0);
    EXPECT_DOUBLE_EQ(cmp.rateGeomean(0), 1.0);
}

TEST(Experiment, GeomeanSubsetsSplitRateAndMix)
{
    Comparison cmp;
    cmp.designs = {"X"};
    ComparisonRow rate_row;
    rate_row.isMix = false;
    rate_row.speedups = {2.0};
    ComparisonRow mix_row;
    mix_row.isMix = true;
    mix_row.speedups = {0.5};
    cmp.rows = {rate_row, mix_row};
    EXPECT_DOUBLE_EQ(cmp.rateGeomean(0), 2.0);
    EXPECT_DOUBLE_EQ(cmp.mixGeomean(0), 0.5);
    EXPECT_DOUBLE_EQ(cmp.allGeomean(0), 1.0);
}

TEST(RunnerOptions, EnvOverrides)
{
    setenv("BEAR_SCALE", "0.25", 1);
    setenv("BEAR_WARMUP", "1234", 1);
    setenv("BEAR_MEASURE", "567", 1);
    const RunnerOptions options = RunnerOptions::fromEnv();
    EXPECT_DOUBLE_EQ(options.scale, 0.25);
    EXPECT_EQ(options.warmupRefsPerCore, 1234u);
    EXPECT_EQ(options.measureRefsPerCore, 567u);
    unsetenv("BEAR_SCALE");
    unsetenv("BEAR_WARMUP");
    unsetenv("BEAR_MEASURE");
}

TEST(RunnerOptions, FullRestoresPaperScale)
{
    setenv("BEAR_FULL", "1", 1);
    EXPECT_DOUBLE_EQ(RunnerOptions::fromEnv().scale, 1.0);
    unsetenv("BEAR_FULL");
}

TEST(RunnerOptions, TraceCapacityParsed)
{
    setenv("BEAR_TRACE", "4096", 1);
    EXPECT_EQ(RunnerOptions::fromEnv().traceCapacity, 4096u);
    unsetenv("BEAR_TRACE");
}

TEST(RunnerOptions, MalformedValueNamesTheVariable)
{
    setenv("BEAR_SCALE", "abc", 1);
    const auto result = RunnerOptions::tryFromEnv();
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().variable, "BEAR_SCALE");
    EXPECT_EQ(result.error().value, "abc");
    EXPECT_NE(result.error().message().find("BEAR_SCALE"),
              std::string::npos);
    unsetenv("BEAR_SCALE");
}

TEST(RunnerOptions, PartiallyNumericValueIsRejected)
{
    // The legacy parser would happily read "123x" as 123; strict
    // parsing requires the whole value to be consumed.
    setenv("BEAR_WARMUP", "123x", 1);
    EXPECT_FALSE(RunnerOptions::tryFromEnv().hasValue());
    unsetenv("BEAR_WARMUP");

    setenv("BEAR_MEASURE", "", 1);
    EXPECT_FALSE(RunnerOptions::tryFromEnv().hasValue());
    unsetenv("BEAR_MEASURE");

    setenv("BEAR_TRACE", "-5", 1);
    const auto negative = RunnerOptions::tryFromEnv();
    ASSERT_FALSE(negative.hasValue());
    EXPECT_EQ(negative.error().variable, "BEAR_TRACE");
    unsetenv("BEAR_TRACE");
}

TEST(RunnerOptions, OverflowingValueNamesAcceptedRange)
{
    // BEAR_WORKERS used to be parsed as u64 and silently truncated
    // into the u32 field; now anything beyond the bound is an EnvError
    // that spells out the accepted range.
    setenv("BEAR_WORKERS", "5000000000", 1);
    const auto workers = RunnerOptions::tryFromEnv();
    ASSERT_FALSE(workers.hasValue());
    EXPECT_EQ(workers.error().variable, "BEAR_WORKERS");
    EXPECT_NE(workers.error().message().find("accepted range"),
              std::string::npos);
    EXPECT_NE(workers.error().message().find("4096"),
              std::string::npos);
    unsetenv("BEAR_WORKERS");

    // A value no u64 can hold is rejected by the same path.
    setenv("BEAR_WARMUP", "99999999999999999999", 1);
    const auto warmup = RunnerOptions::tryFromEnv();
    ASSERT_FALSE(warmup.hasValue());
    EXPECT_EQ(warmup.error().variable, "BEAR_WARMUP");
    unsetenv("BEAR_WARMUP");
}

TEST(RunnerOptions, NegativeValueNamesAcceptedRange)
{
    setenv("BEAR_MEASURE", "-1", 1);
    const auto result = RunnerOptions::tryFromEnv();
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().variable, "BEAR_MEASURE");
    EXPECT_NE(result.error().message().find("accepted range"),
              std::string::npos);
    unsetenv("BEAR_MEASURE");
}

TEST(RunnerOptions, OutOfDomainScaleIsRejected)
{
    setenv("BEAR_SCALE", "0", 1);
    const auto result = RunnerOptions::tryFromEnv();
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().variable, "BEAR_SCALE");
    unsetenv("BEAR_SCALE");
}

TEST(RunnerOptions, ValidEnvironmentRoundTrips)
{
    const auto clean = RunnerOptions::tryFromEnv();
    ASSERT_TRUE(clean.hasValue());
    EXPECT_DOUBLE_EQ(clean->scale, RunnerOptions{}.scale);
    EXPECT_EQ(clean->traceCapacity, 0u);
}

TEST(RunnerOptions, All54AcceptsOnlyZeroOrOne)
{
    setenv("BEAR_ALL54", "0", 1);
    const auto off = RunnerOptions::tryFromEnv();
    ASSERT_TRUE(off.hasValue());
    EXPECT_FALSE(off->allMixes);
    EXPECT_EQ(allJobs(DesignKind::Bear, *off).size(), 24u);

    setenv("BEAR_ALL54", "1", 1);
    const auto on = RunnerOptions::tryFromEnv();
    ASSERT_TRUE(on.hasValue());
    EXPECT_TRUE(on->allMixes);
    EXPECT_EQ(allJobs(DesignKind::Bear, *on).size(), 54u);

    setenv("BEAR_ALL54", "no", 1);
    const auto bad = RunnerOptions::tryFromEnv();
    ASSERT_FALSE(bad.hasValue());
    EXPECT_EQ(bad.error().variable, "BEAR_ALL54");
    EXPECT_NE(bad.error().message().find("accepted range 0..1"),
              std::string::npos);
    unsetenv("BEAR_ALL54");
}

TEST(RunnerOptions, JournalPathReadFromEnv)
{
    setenv("BEAR_JOURNAL", "/tmp/bear-test.journal", 1);
    const auto options = RunnerOptions::tryFromEnv();
    ASSERT_TRUE(options.hasValue());
    EXPECT_EQ(options->journalPath, "/tmp/bear-test.journal");
    unsetenv("BEAR_JOURNAL");
}

TEST(RunnerOptions, FingerprintCoversModelNotExecutionKnobs)
{
    RunnerOptions a, b;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    // Model-affecting fields change the fingerprint (a journal written
    // under one model must not be resumed under another)...
    b.scale = a.scale * 2.0;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    b = a;
    b.seed = a.seed + 1;
    EXPECT_NE(a.fingerprint(), b.fingerprint());

    // ...while execution knobs (workers, journal path) do not: a
    // resume may legally use different ones.
    b = a;
    b.workers = 1;
    b.journalPath = "/elsewhere.journal";
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}
