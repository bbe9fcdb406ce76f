/**
 * @file
 * Experiment runner: builds systems for rate/mix workloads, manages
 * warm-up and measurement phases, caches results, and fans runs out
 * over worker threads.
 *
 * Each run follows the paper's methodology: the system executes a
 * warm-up phase (caches and policy state settle), statistics are
 * reset, and a measurement phase produces the reported numbers.  Mixed
 * workloads additionally need per-benchmark IPC_alone runs (single
 * core on the baseline Alloy system) to compute weighted speedups;
 * the runner computes and memoises those on demand.
 *
 * Resilience (DESIGN.md §11): each job executes inside a containment
 * scope, so an exception, a bear_assert failure, or a bear_fatal deep
 * inside one simulation becomes a structured RunError for that cell —
 * never a dead worker pool or a half-printed table.  SIGINT/SIGTERM
 * drains the sweep: running jobs see the signal flag at their next
 * System::run checkpoint (sim/job_control.hh).  With BEAR_JOURNAL set,
 * every completed cell is appended to a CRC-sealed journal and a
 * re-run resumes, re-executing only failed or missing cells.
 */

#ifndef BEAR_SIM_RUNNER_HH
#define BEAR_SIM_RUNNER_HH

#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.hh"
#include "common/sync.hh"
#include "sim/job_control.hh"
#include "sim/journal.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "workloads/mixes.hh"
#include "workloads/workload.hh"

namespace bear
{

/**
 * A malformed environment override: which variable, what it held, and
 * why it was rejected.
 */
struct EnvError
{
    std::string variable;
    std::string value;
    std::string reason;

    /** `BEAR_SCALE="abc": not a number` — ready to print. */
    std::string message() const;
};

/** Knobs shared by every run of a bench binary. */
struct RunnerOptions
{
    double scale = 0.0625;
    std::uint64_t warmupRefsPerCore = 400000;
    std::uint64_t measureRefsPerCore = 150000;
    std::uint32_t cores = 8;
    std::uint32_t bandwidthRatio = 8;
    std::uint32_t totalBanks = 64;
    std::uint64_t cacheCapacityBytes = 1ULL << 30; ///< pre-scale
    std::uint64_t seed = 0x5EED;
    std::uint32_t workers = 0; ///< 0 = hardware concurrency
    std::size_t traceCapacity = 0; ///< event-trace ring; 0 = off

    /**
     * Replay workload: path of a .beartrace file (src/trace) that
     * supplies every core's reference stream instead of the synthetic
     * generators.  Empty = generate live.  IPC_alone reference runs
     * for mixes still use the generators (they need a 1-core stream).
     */
    std::string traceInPath;

    /**
     * Record workload: path the first executed run writes its streams
     * to as a .beartrace file.  Only the first run of a Runner
     * records (a shared file cannot hold concurrent jobs), even when
     * that run fails; later runs warn and proceed unrecorded.  Empty =
     * no recording.
     */
    std::string traceOutPath;

    /**
     * Path of the CRC-sealed results journal (sim/journal.hh).
     * Completed cells are appended as they finish; re-running with the
     * same journal and options skips them.  Empty = no journal.
     * BEAR_JOURNAL.
     */
    std::string journalPath;

    /** allJobs() runs all 38 mixes instead of the 8 detailed ones
     *  (the paper's 54-workload set).  BEAR_ALL54=1. */
    bool allMixes = false;

    /**
     * Parse the environment overrides strictly: BEAR_SCALE,
     * BEAR_WARMUP, BEAR_MEASURE, BEAR_WORKERS, BEAR_TRACE,
     * BEAR_TRACE_IN / BEAR_TRACE_OUT (.beartrace replay / record),
     * BEAR_JOURNAL (resumable sweeps), BEAR_FULL=1 (paper-size, scale
     * 1.0), BEAR_ALL54=1 (all 38 mixes).  A set-but-malformed
     * variable is an error naming the variable and, for the numeric
     * knobs, the accepted range — never a silent fallback to the
     * default or a silent truncation.
     */
    [[nodiscard]] static Expected<RunnerOptions, EnvError>
    tryFromEnv();

    /** tryFromEnv(), exiting with the error message on failure; the
     *  convenience entry point for bench/example main()s. */
    static RunnerOptions fromEnv();

    /**
     * FNV-1a digest of every field that shapes results (scale, ref
     * counts, cores, geometry, seed, trace capacity, replay path) —
     * the compatibility stamp of the results journal.  Fields that
     * only shape execution or pick the jobs (workers, journal/record
     * paths, allMixes) are excluded, so resuming with more workers is
     * allowed.
     */
    std::uint64_t fingerprint() const;
};

/** A run request: design x workload (rate benchmark or mix). */
struct RunJob
{
    DesignKind design = DesignKind::Alloy;
    std::string rateBenchmark; ///< set for rate mode
    const MixSpec *mix = nullptr; ///< set for mix mode
    /**
     * Optional per-job overrides (sensitivity studies).  An override
     * equal to the RunnerOptions value is the same job as no override.
     */
    std::uint32_t bandwidthRatio = 0; ///< 0 = RunnerOptions value
    std::uint32_t totalBanks = 0;
    std::uint64_t cacheCapacityBytes = 0;
};

/** Where in its lifecycle a job failed (DESIGN.md §11); perfbench
 *  names Setup, Warmup and Measure. */
enum class JobPhase : std::uint8_t
{
    Setup,   ///< stream construction, replay open, recording claim
    Warmup,  ///< the warm-up run
    Measure, ///< the measurement run and stats gathering
    IpcAlone ///< a single-core IPC_alone reference run
};

/** Stable lower-case phase name for errors and reports. */
const char *jobPhaseName(JobPhase phase);

/** Failure taxonomy of one job (DESIGN.md §11). */
enum class RunErrorKind : std::uint8_t
{
    Contained,   ///< exception / contained panic or fatal in the job
    Interrupted, ///< SIGINT/SIGTERM drained the sweep
    TraceIo      ///< recording the job's .beartrace failed
};

/** Stable lower-case kind name for errors and reports. */
const char *runErrorKindName(RunErrorKind kind);

/**
 * One job's structured failure: what and where.  perfbench names key,
 * workload, design, what, phase and message().
 */
struct RunError
{
    RunErrorKind kind = RunErrorKind::Contained;
    std::string key;      ///< runner memo key of the job
    std::string workload;
    std::string design;
    JobPhase phase = JobPhase::Setup;
    std::string what;     ///< exception / panic / cancellation message

    /** `bear/mix1 failed during measure: ... — ready to print.` */
    std::string message() const;
};

/** A completed RunResult, or the structured failure of the job. */
using RunOutcome = Expected<RunResult, RunError>;

/**
 * The kind and message of a failed job's exception (@p failure, from
 * std::current_exception()): JobCancelled is `interrupted`,
 * trace::TraceIoFailure is `trace-io`, and a ContainedFailure,
 * std::bad_alloc, any other std::exception or anything else thrown is
 * `contained`.  The caller fills in the job's identity and phase.
 */
RunError classifyFailure(std::exception_ptr failure);

/** Thread-pooled, memoising experiment runner. */
class Runner
{
  public:
    /**
     * Validates the replay corpus (BEAR_TRACE_IN) up front — a
     * missing or corrupt trace is a fatal config error *before* any
     * simulation runs — then opens the journal and installs the
     * SIGINT/SIGTERM handlers.
     */
    explicit Runner(const RunnerOptions &options);

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** Run one rate-mode workload (8 copies of @p benchmark). */
    RunResult runRate(DesignKind design, const std::string &benchmark);

    /** Run one mixed workload. */
    RunResult runMix(DesignKind design, const MixSpec &mix);

    /**
     * Run a job (rate or mix, with overrides), exiting on failure:
     * the single-job entry point where a failed job is a failed
     * program (exit 1; 130 when interrupted).  Sweeps should prefer
     * tryRun()/runAll(), which contain failures per cell.
     */
    RunResult run(const RunJob &job);

    /** Run a job, containing any failure as a RunError. */
    [[nodiscard]] RunOutcome tryRun(const RunJob &job);

    /**
     * Run jobs across worker threads; outcomes in job order.  A
     * failed job never takes down the sweep: its cell carries the
     * RunError and every other job still completes.  On SIGINT or
     * SIGTERM, running jobs drain as Interrupted and unstarted jobs
     * are skipped.
     */
    [[nodiscard]] std::vector<RunOutcome>
    runAll(const std::vector<RunJob> &jobs);

    /** Memoised IPC_alone of @p benchmark on the baseline system. */
    double ipcAlone(const std::string &benchmark);

    /** ipcAlone(), containing any failure as a RunError. */
    [[nodiscard]] Expected<double, RunError>
    tryIpcAlone(const std::string &benchmark);

    const RunnerOptions &options() const { return options_; }

    /** The journal backing this runner, or null when none. */
    const ResultJournal *journal() const { return journal_.get(); }

  private:
    SystemConfig systemConfig(const RunJob &job) const;
    RunResult execute(const RunJob &job, JobPhase &phase);
    RunOutcome executeContained(const RunJob &job,
                                const std::string &key);
    std::string keyOf(const RunJob &job) const;

    RunnerOptions options_;
    /** Set once the recording run has claimed traceOutPath. */
    std::atomic<bool> trace_out_claimed_{false};

    /** Serialises the memo caches and the journal appends. */
    Mutex mutex_;
    std::map<std::string, RunResult> cache_ GUARDED_BY(mutex_);
    std::map<std::string, double> alone_cache_ GUARDED_BY(mutex_);

    /**
     * The pointer is written once in the constructor (before any
     * worker exists) and read-only afterwards; appends to the pointee
     * are serialised under mutex_.
     */
    std::unique_ptr<ResultJournal> journal_;
};

/** Has this process received SIGINT/SIGTERM since the first Runner? */
bool interruptRequested();

/** The 16-benchmark RATE set. */
std::vector<RunJob> rateJobs(DesignKind design);

/** The 8 detailed mixes. */
std::vector<RunJob> mixJobs(DesignKind design);

/**
 * The "ALL" workload set: RATE + the detailed mixes by default; with
 * @p options.allMixes (BEAR_ALL54=1), RATE + all 38 mixes (the paper's
 * 54-workload set).
 */
std::vector<RunJob> allJobs(DesignKind design,
                            const RunnerOptions &options);

} // namespace bear

#endif // BEAR_SIM_RUNNER_HH
