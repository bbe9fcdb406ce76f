/**
 * @file
 * Resilience suite (DESIGN.md §11), driven by real failures: a disk
 * that is full (/dev/full as the recording path), an unknown workload,
 * a geometry that trips an invariant, and a SIGINT mid-run.  Covers
 * per-job crash containment, the first-job-only recording claim,
 * SIGINT sweep draining, and the CRC-sealed results journal with
 * byte-identical resumed reports.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"

using namespace bear;

namespace
{

/** A device on which every write fails with ENOSPC. */
constexpr const char *kFullDisk = "/dev/full";

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "bear-resilience-" + name + "-"
        + std::to_string(::getpid());
}

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.scale = 0.015625;
    options.warmupRefsPerCore = 20000;
    options.measureRefsPerCore = 10000;
    options.workers = 1;
    return options;
}

/** fastOptions() recording to the full disk. */
RunnerOptions
fullDiskOptions()
{
    RunnerOptions options = fastOptions();
    options.traceOutPath = kFullDisk;
    return options;
}

bool
fullDiskOpens()
{
    return std::ofstream(kFullDisk, std::ios::binary).is_open();
}

#define SKIP_WITHOUT_FULL_DISK()                                     \
    do {                                                             \
        if (!fullDiskOpens())                                        \
            GTEST_SKIP() << kFullDisk << " cannot be opened";        \
    } while (0)

RunJob
rateJob(const char *benchmark)
{
    RunJob job;
    job.rateBenchmark = benchmark;
    return job;
}

} // namespace

// ---------------------------------------------------------------------
// Per-job crash containment

TEST(Containment, ThrowBecomesStructuredError)
{
    // With 1k warm-up references per core, no core fills its first
    // 4096-record chunk before the measured phase: the disk-full seal,
    // and the TraceIoFailure it throws, come during measure.
    SKIP_WITHOUT_FULL_DISK();
    RunnerOptions options = fullDiskOptions();
    options.warmupRefsPerCore = 1000;
    Runner runner(options);
    const RunOutcome outcome = runner.tryRun(rateJob("wrf"));
    ASSERT_FALSE(outcome.hasValue());
    const RunError &err = outcome.error();
    EXPECT_EQ(err.kind, RunErrorKind::TraceIo);
    EXPECT_EQ(err.phase, JobPhase::Measure);
    EXPECT_EQ(err.workload, "wrf");
    EXPECT_NE(err.message().find("[trace-io] during measure"),
              std::string::npos);
}

TEST(Containment, PanicIsContainedNotFatal)
{
    // Two banks over the 8x geometry's four channels leaves each
    // channel with none: a bear_assert in System construction.
    Runner runner(fastOptions());
    RunJob job = rateJob("wrf");
    job.totalBanks = 2;
    const RunOutcome outcome = runner.tryRun(job);
    ASSERT_FALSE(outcome.hasValue());
    EXPECT_EQ(outcome.error().kind, RunErrorKind::Contained);
    EXPECT_EQ(outcome.error().phase, JobPhase::Setup);
    EXPECT_NE(outcome.error().what.find("channel needs banks"),
              std::string::npos);

    // The process and the Runner survive: the next job completes.
    EXPECT_TRUE(runner.tryRun(rateJob("wrf")).hasValue());
}

TEST(Containment, AllocFailureContainedAtSetup)
{
    // A failure while the job's streams are built (here bear_fatal on
    // an unknown workload) is contained in setup.  The classifier test
    // below covers std::bad_alloc's mapping to the same kind.
    Runner runner(fastOptions());
    const RunOutcome outcome = runner.tryRun(rateJob("no-such-benchmark"));
    ASSERT_FALSE(outcome.hasValue());
    EXPECT_EQ(outcome.error().kind, RunErrorKind::Contained);
    EXPECT_EQ(outcome.error().phase, JobPhase::Setup);
    EXPECT_NE(outcome.error().what.find("unknown workload"),
              std::string::npos);
}

TEST(Containment, ClassifierMapsEveryFailureType)
{
    const auto classify = [](auto thrown) {
        return classifyFailure(std::make_exception_ptr(thrown));
    };

    const RunError contained =
        classify(ContainedFailure{true, "invariant broke"});
    EXPECT_EQ(contained.kind, RunErrorKind::Contained);
    EXPECT_EQ(contained.what, "invariant broke");

    const RunError cancelled = classify(JobCancelled{});
    EXPECT_EQ(cancelled.kind, RunErrorKind::Interrupted);
    EXPECT_NE(cancelled.what.find("SIGINT"), std::string::npos);

    const RunError io = classify(trace::TraceIoFailure{
        trace::TraceError{trace::TraceErrorKind::Io, "disk full", 0, -1}});
    EXPECT_EQ(io.kind, RunErrorKind::TraceIo);
    EXPECT_NE(io.what.find("disk full"), std::string::npos);

    const RunError alloc = classify(std::bad_alloc{});
    EXPECT_EQ(alloc.kind, RunErrorKind::Contained);
    EXPECT_NE(alloc.what.find("bad_alloc"), std::string::npos);

    const RunError other = classify(std::runtime_error("boom"));
    EXPECT_EQ(other.kind, RunErrorKind::Contained);
    EXPECT_EQ(other.what, "boom");
}

TEST(Containment, RunAllIsolatesFailuresPerCell)
{
    // IPC_alone of an unknown benchmark fails on its own, and in a
    // sweep it fails only the mix cell that needs it: the rate job
    // completes in the same pool.
    Runner runner(fastOptions());
    const auto alone = runner.tryIpcAlone("no-such-benchmark");
    ASSERT_FALSE(alone.hasValue());
    EXPECT_EQ(alone.error().kind, RunErrorKind::Contained);
    EXPECT_EQ(alone.error().phase, JobPhase::IpcAlone);

    MixSpec broken = tableThreeMixes().front();
    broken.name = "broken-mix";
    broken.benchmarks.back() = "no-such-benchmark";

    std::vector<RunJob> jobs{rateJob("wrf")};
    RunJob mix;
    mix.mix = &broken;
    jobs.push_back(mix);

    const auto outcomes = runner.runAll(jobs);
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(outcomes[0].hasValue());
    EXPECT_EQ(outcomes[0]->workload, "wrf");
    ASSERT_FALSE(outcomes[1].hasValue());
    EXPECT_EQ(outcomes[1].error().kind, RunErrorKind::Contained);
    EXPECT_EQ(outcomes[1].error().phase, JobPhase::IpcAlone);
    EXPECT_EQ(outcomes[1].error().workload, "broken-mix");
}

TEST(Containment, ReplayedMixFailsInIpcAlone)
{
    // A replayed mix takes its streams from the corpus, so only its
    // IPC_alone reference runs build generators from the mix's names.
    const std::string path = tempPath("replay-mix");
    {
        RunnerOptions options = fastOptions();
        options.traceOutPath = path;
        Runner recorder(options);
        ASSERT_TRUE(recorder.tryRun(rateJob("wrf")).hasValue());
    }
    RunnerOptions options = fastOptions();
    options.traceInPath = path;
    Runner runner(options);

    MixSpec broken = tableThreeMixes().front();
    broken.name = "broken-mix";
    broken.benchmarks.front() = "no-such-benchmark";
    RunJob mix;
    mix.mix = &broken;
    const RunOutcome outcome = runner.tryRun(mix);
    ASSERT_FALSE(outcome.hasValue());
    EXPECT_EQ(outcome.error().phase, JobPhase::IpcAlone);
    EXPECT_EQ(outcome.error().workload, "broken-mix");
    std::remove(path.c_str());
}

TEST(Containment, CleanRunnerIsUnaffectedByPlumbing)
{
    // The resilience layer must not perturb results: a clean runner
    // with no knobs set produces the same stats as always.
    Runner runner(fastOptions());
    const RunOutcome outcome = runner.tryRun(rateJob("wrf"));
    ASSERT_TRUE(outcome.hasValue());
    EXPECT_GT(outcome->stats.ipcTotal, 0.0);
}

// ---------------------------------------------------------------------
// Recording to a full disk

TEST(TraceIo, DiskFullDuringWarmupFailsTheCell)
{
    // 20k warm-up references per core fill the first 4096-record chunk
    // of every core long before the measured phase.
    SKIP_WITHOUT_FULL_DISK();
    Runner runner(fullDiskOptions());
    const RunOutcome outcome = runner.tryRun(rateJob("wrf"));
    ASSERT_FALSE(outcome.hasValue());
    EXPECT_EQ(outcome.error().kind, RunErrorKind::TraceIo);
    EXPECT_EQ(outcome.error().phase, JobPhase::Warmup);
}

TEST(TraceIo, OnlyTheFirstJobRecords)
{
    // The recording claim stays with the first job even when it fails:
    // one disk-full cell, executed once, and the later jobs of the
    // sweep run unrecorded and complete.
    SKIP_WITHOUT_FULL_DISK();
    Runner runner(fullDiskOptions());
    const auto outcomes = runner.runAll(
        {rateJob("wrf"), rateJob("mcf"), rateJob("libquantum")});
    ASSERT_EQ(outcomes.size(), 3u);
    ASSERT_FALSE(outcomes[0].hasValue());
    EXPECT_EQ(outcomes[0].error().kind, RunErrorKind::TraceIo);
    EXPECT_EQ(outcomes[0].error().workload, "wrf");
    ASSERT_TRUE(outcomes[1].hasValue()) << outcomes[1].error().message();
    ASSERT_TRUE(outcomes[2].hasValue()) << outcomes[2].error().message();
}

// ---------------------------------------------------------------------
// Interrupts

TEST(Interrupt, SignalDrainsSweepWithExitCode130)
{
    // In the death-test child: raise SIGINT before the sweep starts;
    // every cell must drain as Interrupted and the exit policy maps
    // that to 130.  The parent only observes the exit code.
    EXPECT_EXIT(
        {
            Runner runner(fastOptions());
            std::raise(SIGINT);
            const auto outcomes = runner.runAll({rateJob("wrf")});
            const bool drained = !outcomes[0].hasValue()
                && outcomes[0].error().kind == RunErrorKind::Interrupted;
            std::exit(drained && interruptRequested() ? 130 : 1);
        },
        ::testing::ExitedWithCode(130), "");
}

TEST(Interrupt, SignalUnwindsTheRunningJob)
{
    // A SIGINT 200 ms into a warm-up of 2M references per core reaches
    // the running job through the signal flag: it unwinds at its next
    // checkpoint as `interrupted` in warmup, long before the warm-up
    // would have finished.
    EXPECT_EXIT(
        {
            RunnerOptions options = fastOptions();
            options.warmupRefsPerCore = 2000000;
            Runner runner(options);
            std::thread interrupter([] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
                ::kill(::getpid(), SIGINT);
            });
            const RunOutcome outcome = runner.tryRun(rateJob("wrf"));
            interrupter.join();
            const bool unwound = !outcome.hasValue()
                && outcome.error().kind == RunErrorKind::Interrupted
                && outcome.error().phase == JobPhase::Warmup;
            std::exit(unwound ? 130 : 1);
        },
        ::testing::ExitedWithCode(130), "");
}

// ---------------------------------------------------------------------
// TraceWriter stream-failure surfacing (no silent corruption)

TEST(TraceWriterFault, WriteFailureSurfacesAtSealAndPoisonsWriter)
{
    SKIP_WITHOUT_FULL_DISK();
    trace::TraceMeta meta;
    meta.workload = "synthetic";
    meta.coreCount = 1;
    auto writer = trace::TraceWriter::create(kFullDisk, meta);
    ASSERT_TRUE(writer.hasValue());

    // Records buffer in the open chunk; the record that fills it seals
    // the chunk, and that write fails.  Every later append fails fast.
    MemRef ref{};
    for (std::uint32_t i = 0; i + 1 < trace::kMaxChunkRecords; ++i)
        ASSERT_TRUE(writer.value().append(0, ref).hasValue()) << i;
    EXPECT_FALSE(writer.value().append(0, ref).hasValue());
    EXPECT_FALSE(writer.value().append(0, ref).hasValue());
    EXPECT_FALSE(writer.value().finish().hasValue());
}

TEST(TraceWriterFault, FinishFailureSurfaces)
{
    SKIP_WITHOUT_FULL_DISK();
    trace::TraceMeta meta;
    meta.workload = "synthetic";
    meta.coreCount = 1;
    auto writer = trace::TraceWriter::create(kFullDisk, meta);
    ASSERT_TRUE(writer.hasValue());
    MemRef ref{};
    EXPECT_TRUE(writer.value().append(0, ref).hasValue());
    EXPECT_FALSE(writer.value().finish().hasValue());
}

// ---------------------------------------------------------------------
// Results journal

namespace
{

/** A RunResult with distinctive bit patterns in the lossy spots. */
RunResult
sampleResult(const std::string &workload)
{
    RunResult r;
    r.workload = workload;
    r.design = "Bear";
    r.stats.ipcTotal = 1.0 / 3.0; // not representable in %.10g
    r.stats.execCycles = 123456789;
    r.stats.ipcPerCore = {0.1, 0.2};
    return r;
}

} // namespace

TEST(Journal, FreshJournalRoundTripsEntries)
{
    const std::string path = tempPath("roundtrip");
    std::remove(path.c_str());
    {
        auto journal = ResultJournal::openOrCreate(path, 7);
        ASSERT_TRUE(journal.hasValue());
        EXPECT_TRUE(journal->results().empty());
        EXPECT_TRUE(journal->appendResult("k1", sampleResult("wrf")));
        EXPECT_TRUE(journal->appendAlone("wrf", 1.0 / 7.0));
    }
    auto reopened = ResultJournal::openOrCreate(path, 7);
    ASSERT_TRUE(reopened.hasValue());
    ASSERT_EQ(reopened->results().count("k1"), 1u);
    const RunResult &r = reopened->results().at("k1");
    EXPECT_EQ(r.workload, "wrf");
    // Bit-identical restore, not just approximately equal.
    EXPECT_EQ(r.stats.ipcTotal, 1.0 / 3.0);
    ASSERT_EQ(reopened->aloneIpcs().count("wrf"), 1u);
    EXPECT_EQ(reopened->aloneIpcs().at("wrf"), 1.0 / 7.0);
    std::remove(path.c_str());
}

TEST(Journal, FingerprintMismatchIsHardError)
{
    const std::string path = tempPath("fingerprint");
    std::remove(path.c_str());
    {
        auto journal = ResultJournal::openOrCreate(path, 7);
        ASSERT_TRUE(journal.hasValue());
    }
    auto mismatched = ResultJournal::openOrCreate(path, 8);
    ASSERT_FALSE(mismatched.hasValue());
    EXPECT_NE(mismatched.error().message.find("different runner"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, NotAJournalIsRejected)
{
    const std::string path = tempPath("garbage");
    {
        std::ofstream out(path, std::ios::binary);
        out << "definitely not a journal";
    }
    auto opened = ResultJournal::openOrCreate(path, 7);
    ASSERT_FALSE(opened.hasValue());
    EXPECT_NE(opened.error().message.find("not a BEAR results journal"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, TornTailIsTruncatedSealedEntriesKept)
{
    const std::string path = tempPath("torn");
    std::remove(path.c_str());
    {
        auto journal = ResultJournal::openOrCreate(path, 7);
        ASSERT_TRUE(journal.hasValue());
        EXPECT_TRUE(journal->appendResult("k1", sampleResult("wrf")));
    }
    { // Simulate a crash mid-append: half a frame at the tail.
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        const char torn[] = {1, 0, 0, 0, 42};
        out.write(torn, sizeof(torn));
    }
    auto reopened = ResultJournal::openOrCreate(path, 7);
    ASSERT_TRUE(reopened.hasValue());
    EXPECT_EQ(reopened->results().count("k1"), 1u);

    // The truncation is durable: a third open sees a clean file and
    // can append to it.
    auto again = ResultJournal::openOrCreate(path, 7);
    ASSERT_TRUE(again.hasValue());
    EXPECT_TRUE(again->appendResult("k2", sampleResult("mcf")));
    std::remove(path.c_str());
}

TEST(Journal, ResumeSkipsJournaledCellsAndRestoresBitIdentical)
{
    SKIP_WITHOUT_FULL_DISK();
    const std::string path = tempPath("resume");
    std::remove(path.c_str());

    // Phase 1: complete the cell under a journal.
    std::string first_json;
    {
        RunnerOptions options = fastOptions();
        options.journalPath = path;
        Runner runner(options);
        const RunOutcome outcome = runner.tryRun(rateJob("wrf"));
        ASSERT_TRUE(outcome.hasValue());
        first_json = runResultToJson(*outcome);
    }

    // Phase 2: same journal, but the first executed job records to a
    // full disk and fails.  The journaled cell must come back from
    // disk — proving it was never executed — and byte-identical.
    {
        RunnerOptions options = fullDiskOptions();
        options.journalPath = path;
        Runner runner(options);
        ASSERT_NE(runner.journal(), nullptr);
        EXPECT_EQ(runner.journal()->results().size(), 1u);

        const RunOutcome resumed = runner.tryRun(rateJob("wrf"));
        ASSERT_TRUE(resumed.hasValue());
        EXPECT_EQ(runResultToJson(*resumed), first_json);

        // A cell not in the journal still executes (and here, fails).
        const RunOutcome fresh = runner.tryRun(rateJob("mcf"));
        ASSERT_FALSE(fresh.hasValue());
        EXPECT_EQ(fresh.error().kind, RunErrorKind::TraceIo);
    }
    std::remove(path.c_str());
}

TEST(Journal, ExplicitDefaultOverrideAddsNoEntry)
{
    // An override equal to the runner's own value is the default job:
    // it is served from the memo and never journaled a second time.
    const std::string path = tempPath("canonical");
    std::remove(path.c_str());
    RunnerOptions options = fastOptions();
    options.journalPath = path;
    {
        Runner runner(options);
        ASSERT_TRUE(runner.tryRun(rateJob("wrf")).hasValue());
        RunJob spelled = rateJob("wrf");
        spelled.bandwidthRatio = options.bandwidthRatio;
        spelled.totalBanks = options.totalBanks;
        spelled.cacheCapacityBytes = options.cacheCapacityBytes;
        ASSERT_TRUE(runner.tryRun(spelled).hasValue());
    }
    auto journal = ResultJournal::openOrCreate(path, options.fingerprint());
    ASSERT_TRUE(journal.hasValue());
    EXPECT_EQ(journal->results().size(), 1u);
    std::remove(path.c_str());
}

TEST(Journal, FaultedSweepResumesToByteIdenticalReport)
{
    // The §11 acceptance shape in miniature: a sweep that records to a
    // full disk yields a partial report; resuming against the journal
    // completes it; the completed report is byte-identical to a clean
    // run's.
    SKIP_WITHOUT_FULL_DISK();
    const std::string path = tempPath("acceptance");
    std::remove(path.c_str());

    std::vector<RunJob> jobs{rateJob("wrf")};
    RunJob mix;
    mix.mix = &tableThreeMixes().front();
    jobs.push_back(mix);

    // Reference: clean, journal-free sweep.
    std::string clean_json;
    {
        Runner runner(fastOptions());
        const Comparison cmp = compareDesigns(
            runner, jobs, DesignKind::Alloy, {DesignKind::Bear});
        ASSERT_TRUE(cmp.complete());
        EXPECT_EQ(exitStatus(cmp), 0);
        clean_json = comparisonToJson("sweep", cmp);
        // A clean report never mentions failures.
        EXPECT_EQ(clean_json.find("failure"), std::string::npos);
    }

    // Failed sweep: the first cell's recording hits the full disk, the
    // other cells complete and land in the journal.
    {
        RunnerOptions options = fullDiskOptions();
        options.journalPath = path;
        Runner runner(options);
        const Comparison cmp = compareDesigns(
            runner, jobs, DesignKind::Alloy, {DesignKind::Bear});
        EXPECT_FALSE(cmp.complete());
        EXPECT_EQ(cmp.failures.size(), 1u);
        EXPECT_EQ(exitStatus(cmp), 3);
        const std::string partial = comparisonToJson("sweep", cmp);
        EXPECT_NE(partial.find("failures"), std::string::npos);
        EXPECT_NE(partial.find("trace-io"), std::string::npos);
    }

    // Resume: only the failed cell executes; the final report mixes
    // journaled and fresh results and must equal the reference byte
    // for byte.
    {
        RunnerOptions options = fastOptions();
        options.journalPath = path;
        Runner runner(options);
        const Comparison cmp = compareDesigns(
            runner, jobs, DesignKind::Alloy, {DesignKind::Bear});
        ASSERT_TRUE(cmp.complete());
        EXPECT_EQ(comparisonToJson("sweep", cmp), clean_json);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Exit-code policy

TEST(ExitPolicy, CompletePartialAndInterrupted)
{
    Comparison cmp;
    EXPECT_EQ(exitStatus(cmp), 0);

    RunError contained;
    contained.kind = RunErrorKind::Contained;
    cmp.failures.push_back(contained);
    EXPECT_EQ(exitStatus(cmp), 3);

    RunError interrupted;
    interrupted.kind = RunErrorKind::Interrupted;
    cmp.failures.push_back(interrupted);
    EXPECT_EQ(exitStatus(cmp), 130);
}
