#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <new>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"

namespace bear
{

namespace
{

/**
 * Accepted ranges of the numeric knobs.  Values above these are
 * either physically meaningless (a 2^40-reference warm-up would run
 * for months) or would silently truncate on the narrower option
 * fields — both are rejected with the range in the error instead.
 */
constexpr std::uint64_t kMaxRefsPerCore = 1ULL << 40;
constexpr std::uint64_t kMaxWorkers = 4096;
constexpr std::uint64_t kMaxEventTraceCapacity = 1ULL << 24;

/**
 * Strict full-string parsers: the whole value must be consumed, so
 * "12x" or "" is an error, not a truncated-but-accepted number.
 * std::optional-of-nothing would lose the reason; return it directly.
 */
const char *
parseU64(const char *text, std::uint64_t &out)
{
    if (*text == '\0')
        return "empty value";
    if (*text == '-')
        return "negative value";
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        return "not an unsigned integer";
    if (errno == ERANGE)
        return "out of range";
    out = v;
    return nullptr;
}

const char *
parseDouble(const char *text, double &out)
{
    if (*text == '\0')
        return "empty value";
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        return "not a number";
    if (errno == ERANGE || !std::isfinite(v))
        return "out of range";
    out = v;
    return nullptr;
}

/*
 * Strict environment overrides (the BEAR_* parsing discipline): an
 * unset variable leaves its target untouched and returns false; a
 * set-but-malformed or out-of-range value is an EnvError naming the
 * variable, the rejected text and the accepted domain, never a silent
 * fallback to the default or a silent truncation.
 */

/**
 * Double override: parse $name into @p out if set, then apply
 * @p constraint, which returns nullptr to accept or the reason to
 * reject.
 */
Expected<bool, EnvError>
envOverride(const char *name, double &out,
            const char *constraint(const double &))
{
    const char *text = std::getenv(name);
    if (!text)
        return false;
    double parsed = 0.0;
    if (const char *why = parseDouble(text, parsed))
        return unexpected(EnvError{name, text, why});
    if (const char *why = constraint(parsed))
        return unexpected(EnvError{name, text, why});
    out = parsed;
    return true;
}

/**
 * Unsigned override in 0..@p max: negative, non-numeric, and
 * overflowing values are all rejected with the accepted range spelled
 * out, so `BEAR_WORKERS=5000000000` is an error message and not a
 * silently truncated 32-bit worker count.
 */
Expected<bool, EnvError>
envU64InRange(const char *name, std::uint64_t &out, std::uint64_t max)
{
    const char *text = std::getenv(name);
    if (!text)
        return false;
    std::uint64_t parsed = 0;
    const char *why = parseU64(text, parsed);
    if (!why && parsed > max)
        why = "out of range";
    if (why) {
        return unexpected(EnvError{
            name, text,
            detail::format(why, " (accepted range 0..", max, ")")});
    }
    out = parsed;
    return true;
}

/** String override; set-but-empty is a config error, not "unset". */
Expected<bool, EnvError>
envNonEmptyString(const char *name, std::string &out)
{
    const char *text = std::getenv(name);
    if (!text)
        return false;
    if (*text == '\0')
        return unexpected(EnvError{name, text, "empty value"});
    out = text;
    return true;
}

/**
 * SIGINT/SIGTERM land here: record the signal and restore the default
 * disposition, so a second ^C force-kills instead of waiting for the
 * drain.  Only the async-signal-safe store happens in handler
 * context; running jobs see the flag at their next System::run
 * checkpoint, the unwinding workers seal any partial trace, and
 * journals are already flushed per append — nothing computed is lost.
 */
extern "C" void
bearSignalHandler(int sig)
{
    g_interrupt_signal.store(sig, std::memory_order_relaxed);
    std::signal(sig, SIG_DFL);
}

/**
 * The paper's methodology for one run: build a System over @p streams
 * (one per core), warm up, reset statistics, measure.  @p phase
 * follows the run, so a failure is attributed to the right phase.
 */
SystemStats
runPhases(SystemConfig config,
          std::vector<std::unique_ptr<RefStream>> streams,
          const RunnerOptions &options, JobPhase &phase)
{
    bear_assert(streams.size() == config.cores,
                "need one reference stream per core");
    JobControl control;
    config.control = &control;
    System system(config, std::move(streams));
    phase = JobPhase::Warmup;
    system.run(options.warmupRefsPerCore);
    system.resetStats();
    phase = JobPhase::Measure;
    system.run(options.measureRefsPerCore);
    return system.stats();
}

} // namespace

std::string
EnvError::message() const
{
    return variable + "=\"" + value + "\": " + reason;
}

const char *
jobPhaseName(JobPhase phase)
{
    switch (phase) {
    case JobPhase::Setup:
        return "setup";
    case JobPhase::Warmup:
        return "warmup";
    case JobPhase::Measure:
        return "measure";
    case JobPhase::IpcAlone:
        return "ipc_alone";
    }
    return "?";
}

const char *
runErrorKindName(RunErrorKind kind)
{
    switch (kind) {
    case RunErrorKind::Contained:
        return "contained";
    case RunErrorKind::Interrupted:
        return "interrupted";
    case RunErrorKind::TraceIo:
        return "trace-io";
    }
    return "?";
}

std::string
RunError::message() const
{
    return detail::format(design, '/', workload, " failed [",
                          runErrorKindName(kind), "] during ",
                          jobPhaseName(phase), ": ", what);
}

RunError
classifyFailure(std::exception_ptr failure)
{
    RunError err;
    try {
        std::rethrow_exception(failure);
    } catch (const ContainedFailure &contained) {
        err.what = contained.message;
    } catch (const JobCancelled &) {
        err.kind = RunErrorKind::Interrupted;
        err.what = "interrupted (SIGINT/SIGTERM)";
    } catch (const trace::TraceIoFailure &io) {
        err.kind = RunErrorKind::TraceIo;
        err.what = io.error.message();
    } catch (const std::bad_alloc &) {
        err.what = "allocation failure (std::bad_alloc)";
    } catch (const std::exception &e) {
        err.what = e.what();
    } catch (...) {
        err.what = "unknown exception";
    }
    return err;
}

Expected<RunnerOptions, EnvError>
RunnerOptions::tryFromEnv()
{
    RunnerOptions options;

    std::uint64_t full = 0;
    auto r = envU64InRange("BEAR_FULL", full, 1);
    if (!r)
        return unexpected(r.error());
    if (full)
        options.scale = 1.0;

    r = envOverride("BEAR_SCALE", options.scale,
                    +[](const double &v) {
                        return v > 0.0 && v <= 16.0
                            ? nullptr
                            : "scale must be in (0, 16]";
                    });
    if (!r)
        return unexpected(r.error());

    r = envU64InRange("BEAR_WARMUP", options.warmupRefsPerCore,
                      kMaxRefsPerCore);
    if (!r)
        return unexpected(r.error());
    r = envU64InRange("BEAR_MEASURE", options.measureRefsPerCore,
                      kMaxRefsPerCore);
    if (!r)
        return unexpected(r.error());

    std::uint64_t workers = options.workers;
    r = envU64InRange("BEAR_WORKERS", workers, kMaxWorkers);
    if (!r)
        return unexpected(r.error());
    options.workers = static_cast<std::uint32_t>(workers);

    std::uint64_t trace = options.traceCapacity;
    r = envU64InRange("BEAR_TRACE", trace, kMaxEventTraceCapacity);
    if (!r)
        return unexpected(r.error());
    options.traceCapacity = static_cast<std::size_t>(trace);

    r = envNonEmptyString("BEAR_TRACE_IN", options.traceInPath);
    if (!r)
        return unexpected(r.error());
    r = envNonEmptyString("BEAR_TRACE_OUT", options.traceOutPath);
    if (!r)
        return unexpected(r.error());

    r = envNonEmptyString("BEAR_JOURNAL", options.journalPath);
    if (!r)
        return unexpected(r.error());

    std::uint64_t all54 = 0;
    r = envU64InRange("BEAR_ALL54", all54, 1);
    if (!r)
        return unexpected(r.error());
    options.allMixes = all54 != 0;

    return options;
}

RunnerOptions
RunnerOptions::fromEnv()
{
    auto options = tryFromEnv();
    if (!options)
        bear_fatal("bad environment override: ",
                   options.error().message());
    return *options;
}

std::uint64_t
RunnerOptions::fingerprint() const
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a offset basis
    const auto mixIn = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    mixIn(std::bit_cast<std::uint64_t>(scale));
    mixIn(warmupRefsPerCore);
    mixIn(measureRefsPerCore);
    mixIn(cores);
    mixIn(bandwidthRatio);
    mixIn(totalBanks);
    mixIn(cacheCapacityBytes);
    mixIn(seed);
    mixIn(static_cast<std::uint64_t>(traceCapacity));
    for (const char c : traceInPath) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

Runner::Runner(const RunnerOptions &options) : options_(options)
{
    bear_assert(options.scale > 0.0, "scale must be positive");
    bear_assert(options.cores > 0, "need cores");

    // Preflight the replay corpus before any simulation: a missing or
    // corrupt BEAR_TRACE_IN must never cost a warm-up first.
    if (!options_.traceInPath.empty()) {
        auto probe =
            trace::TraceReplayStream::open(options_.traceInPath, 0);
        if (!probe.hasValue()) {
            bear_fatal("BEAR_TRACE_IN=", options_.traceInPath, ": ",
                       probe.error().message());
        }
        if ((*probe)->meta().coreCount != options_.cores) {
            bear_fatal("BEAR_TRACE_IN=", options_.traceInPath,
                       ": recorded with ", (*probe)->meta().coreCount,
                       " cores, this run wants ", options_.cores);
        }
    }

    if (!options_.journalPath.empty()) {
        auto journal = ResultJournal::openOrCreate(
            options_.journalPath, options_.fingerprint());
        if (!journal.hasValue()) {
            bear_fatal("BEAR_JOURNAL: ", journal.error().message);
        }
        journal_ =
            std::make_unique<ResultJournal>(std::move(*journal));
        cache_ = journal_->results();
        alone_cache_ = journal_->aloneIpcs();
        if (!cache_.empty() || !alone_cache_.empty()) {
            bear_inform("BEAR_JOURNAL=", options_.journalPath,
                        ": resuming with ", cache_.size(),
                        " journaled result(s) and ",
                        alone_cache_.size(),
                        " IPC_alone value(s); only missing cells run");
        }
    }

    // Process-wide: the first Runner installs the handlers.
    static OnceFlag once;
    callOnce(once, [] {
        std::signal(SIGINT, bearSignalHandler);
        std::signal(SIGTERM, bearSignalHandler);
    });
}

bool
interruptRequested()
{
    return g_interrupt_signal.load(std::memory_order_relaxed) != 0;
}

SystemConfig
Runner::systemConfig(const RunJob &job) const
{
    SystemConfig config;
    config.design = job.design;
    config.cores = options_.cores;
    config.scale = options_.scale;
    config.cacheCapacityBytes = job.cacheCapacityBytes
        ? job.cacheCapacityBytes
        : options_.cacheCapacityBytes;
    config.bandwidthRatio =
        job.bandwidthRatio ? job.bandwidthRatio : options_.bandwidthRatio;
    config.totalBanks = job.totalBanks ? job.totalBanks
                                       : options_.totalBanks;
    config.seed = options_.seed;
    config.traceCapacity = options_.traceCapacity;
    return config;
}

std::string
Runner::keyOf(const RunJob &job) const
{
    // Key an override equal to the runner's own value as no override,
    // so both spellings of one configuration share a memo and journal
    // entry.
    const auto canonical = [](auto value, auto runner_value) {
        return value == runner_value ? decltype(value){0} : value;
    };
    std::ostringstream os;
    os << designName(job.design) << '|'
       << (job.mix ? job.mix->name : job.rateBenchmark) << '|'
       << canonical(job.bandwidthRatio, options_.bandwidthRatio) << '|'
       << canonical(job.totalBanks, options_.totalBanks) << '|'
       << canonical(job.cacheCapacityBytes, options_.cacheCapacityBytes);
    return os.str();
}

RunResult
Runner::execute(const RunJob &job, JobPhase &phase)
{
    const std::string workload_name =
        job.mix ? job.mix->name : job.rateBenchmark;

    std::vector<std::unique_ptr<RefStream>> streams;
    if (!options_.traceInPath.empty()) {
        // Replay mode: every core's stream comes from the recorded
        // corpus; the job only chooses the design and the label.
        for (std::uint32_t c = 0; c < options_.cores; ++c) {
            auto stream = trace::TraceReplayStream::open(
                options_.traceInPath, c);
            if (!stream.hasValue()) {
                bear_fatal("BEAR_TRACE_IN=", options_.traceInPath,
                           ": ", stream.error().message());
            }
            if ((*stream)->meta().coreCount != options_.cores) {
                bear_fatal("BEAR_TRACE_IN=", options_.traceInPath,
                           ": recorded with ",
                           (*stream)->meta().coreCount,
                           " cores, this run wants ", options_.cores);
            }
            streams.push_back(std::move(stream.value()));
        }
    } else if (job.mix) {
        for (std::uint32_t c = 0; c < options_.cores; ++c) {
            const WorkloadProfile &profile =
                profileByName(job.mix->benchmarks[c]);
            streams.push_back(std::make_unique<WorkloadStream>(
                profile, options_.seed + 0x1000 * (c + 1),
                options_.scale));
        }
    } else {
        const WorkloadProfile &profile =
            profileByName(job.rateBenchmark);
        for (std::uint32_t c = 0; c < options_.cores; ++c) {
            streams.push_back(std::make_unique<WorkloadStream>(
                profile, options_.seed + 0x1000 * (c + 1),
                options_.scale));
        }
    }

    // Tee the streams to a .beartrace file.  One file holds one run,
    // so only the first job records, whether or not it completes;
    // declared before the System so the recording streams it feeds
    // are destroyed first.
    std::unique_ptr<trace::TraceWriter> writer;
    if (!options_.traceOutPath.empty()) {
        if (!trace_out_claimed_.exchange(true)) {
            trace::TraceMeta meta;
            meta.workload = workload_name;
            meta.seed = options_.seed;
            meta.coreCount = options_.cores;
            auto created = trace::TraceWriter::create(
                options_.traceOutPath, meta);
            if (!created.hasValue()) {
                bear_fatal("BEAR_TRACE_OUT=", options_.traceOutPath,
                           ": ", created.error().message());
            }
            writer = std::make_unique<trace::TraceWriter>(
                std::move(created.value()));
            for (std::uint32_t c = 0; c < options_.cores; ++c) {
                streams[c] = std::make_unique<trace::RecordingStream>(
                    std::move(streams[c]), *writer, c);
            }
        } else {
            bear_warn("BEAR_TRACE_OUT=", options_.traceOutPath,
                      ": already recording an earlier run; ",
                      workload_name, " runs unrecorded");
        }
    }

    bool writer_finished = false;
    try {
        RunResult result;
        result.workload = workload_name;
        result.design = designName(job.design);
        result.isMix = job.mix != nullptr;
        result.stats = runPhases(systemConfig(job), std::move(streams),
                                 options_, phase);
        if (writer) {
            writer_finished = true;
            auto finished = writer->finish();
            if (!finished.hasValue())
                throw trace::TraceIoFailure{finished.error()};
            bear_inform("recorded ", *finished, " references of ",
                        workload_name, " to ", options_.traceOutPath);
        }
        return result;
    } catch (...) {
        // Seal whatever the recording already holds: a finished-short
        // trace replays its prefix, an unfinished one is garbage.
        if (writer && !writer_finished) {
            auto sealed = writer->finish();
            if (sealed.hasValue()) {
                bear_warn("BEAR_TRACE_OUT=", options_.traceOutPath,
                          ": job failed mid-recording; sealed a "
                          "partial trace of ",
                          *sealed, " references");
            }
        }
        throw;
    }
}

RunOutcome
Runner::executeContained(const RunJob &job, const std::string &key)
{
    // A mix's weighted speedup needs each benchmark's IPC_alone; a
    // failed reference run fails the mix cell in phase ipc_alone.
    std::vector<double> alone;
    if (job.mix) {
        for (const auto &benchmark : job.mix->benchmarks) {
            auto ipc = tryIpcAlone(benchmark);
            if (!ipc.hasValue()) {
                RunError err = ipc.error();
                err.key = key;
                err.workload = job.mix->name;
                err.design = designName(job.design);
                return unexpected(std::move(err));
            }
            alone.push_back(*ipc);
        }
    }

    JobPhase phase = JobPhase::Setup;
    try {
        ContainmentScope contain;
        RunResult result = execute(job, phase);
        result.ipcAlone = std::move(alone);
        return result;
    } catch (...) {
        RunError err = classifyFailure(std::current_exception());
        err.key = key;
        err.workload = job.mix ? job.mix->name : job.rateBenchmark;
        err.design = designName(job.design);
        err.phase = phase;
        return unexpected(std::move(err));
    }
}

RunOutcome
Runner::tryRun(const RunJob &job)
{
    const std::string key = keyOf(job);
    {
        MutexLock lock(mutex_);
        auto it = cache_.find(key);
        if (it != cache_.end())
            return it->second;
    }

    RunOutcome outcome = executeContained(job, key);
    if (!outcome.hasValue())
        return outcome;
    MutexLock lock(mutex_);
    auto [it, inserted] = cache_.emplace(key, std::move(*outcome));
    if (inserted && journal_ && !journal_->appendResult(key, it->second)) {
        bear_warn("BEAR_JOURNAL=", options_.journalPath, ": appending ",
                  key, " failed; resumability degrades");
    }
    return it->second;
}

RunResult
Runner::run(const RunJob &job)
{
    auto outcome = tryRun(job);
    if (!outcome.hasValue()) {
        const RunError &err = outcome.error();
        if (err.kind == RunErrorKind::Interrupted) {
            bear_inform("interrupted: ", err.message());
            std::exit(130);
        }
        bear_fatal(err.message());
    }
    return *outcome;
}

RunResult
Runner::runRate(DesignKind design, const std::string &benchmark)
{
    RunJob job;
    job.design = design;
    job.rateBenchmark = benchmark;
    return run(job);
}

RunResult
Runner::runMix(DesignKind design, const MixSpec &mix)
{
    RunJob job;
    job.design = design;
    job.mix = &mix;
    return run(job);
}

Expected<double, RunError>
Runner::tryIpcAlone(const std::string &benchmark)
{
    {
        MutexLock lock(mutex_);
        auto it = alone_cache_.find(benchmark);
        if (it != alone_cache_.end())
            return it->second;
    }

    try {
        ContainmentScope contain;

        // Single active core on the baseline Alloy system: the
        // benchmark has every resource to itself.
        SystemConfig config;
        config.design = DesignKind::Alloy;
        config.cores = 1;
        config.scale = options_.scale;
        config.cacheCapacityBytes = options_.cacheCapacityBytes;
        config.bandwidthRatio = options_.bandwidthRatio;
        config.totalBanks = options_.totalBanks;
        config.seed = options_.seed;

        std::vector<std::unique_ptr<RefStream>> streams;
        streams.push_back(std::make_unique<WorkloadStream>(
            profileByName(benchmark), options_.seed + 0x1000,
            options_.scale));
        JobPhase phase = JobPhase::Setup;
        const double ipc =
            runPhases(config, std::move(streams), options_, phase)
                .ipcPerCore[0];

        MutexLock lock(mutex_);
        auto [it, inserted] = alone_cache_.emplace(benchmark, ipc);
        if (inserted && journal_
            && !journal_->appendAlone(benchmark, ipc)) {
            bear_warn("BEAR_JOURNAL=", options_.journalPath,
                      ": appending IPC_alone of ", benchmark,
                      " failed; resumability degrades");
        }
        return it->second;
    } catch (...) {
        RunError err = classifyFailure(std::current_exception());
        err.key = "alone|" + benchmark;
        err.workload = benchmark;
        err.design = "alloy-1core";
        // Both phases report as ipc_alone: the reference run is one
        // opaque step of its enclosing mix cell.
        err.phase = JobPhase::IpcAlone;
        return unexpected(std::move(err));
    }
}

double
Runner::ipcAlone(const std::string &benchmark)
{
    auto outcome = tryIpcAlone(benchmark);
    if (!outcome.hasValue()) {
        const RunError &err = outcome.error();
        if (err.kind == RunErrorKind::Interrupted) {
            bear_inform("interrupted: ", err.message());
            std::exit(130);
        }
        bear_fatal(err.message());
    }
    return *outcome;
}

std::vector<RunOutcome>
Runner::runAll(const std::vector<RunJob> &jobs)
{
    std::uint32_t workers = options_.workers
        ? options_.workers
        : std::max(1U, std::thread::hardware_concurrency());
    workers = std::min<std::uint32_t>(
        workers, static_cast<std::uint32_t>(jobs.size()));

    // Mix jobs need IPC_alone numbers; compute them up front so worker
    // threads only read the memo table.  A failure here is not final —
    // the mix cells re-attempt and carry the structured error if it
    // persists.
    for (const RunJob &job : jobs) {
        if (interruptRequested())
            break;
        if (job.mix) {
            for (const auto &benchmark : job.mix->benchmarks) {
                auto alone = tryIpcAlone(benchmark);
                if (!alone.hasValue()) {
                    bear_warn("IPC_alone precompute failed: ",
                              alone.error().message());
                }
            }
        }
    }

    // Expected<> has no default state, so prefill every cell with the
    // outcome it has if no worker ever reaches it (interrupt drain).
    std::vector<RunOutcome> results;
    results.reserve(jobs.size());
    for (const RunJob &job : jobs) {
        RunError placeholder;
        placeholder.kind = RunErrorKind::Interrupted;
        placeholder.key = keyOf(job);
        placeholder.workload =
            job.mix ? job.mix->name : job.rateBenchmark;
        placeholder.design = designName(job.design);
        placeholder.phase = JobPhase::Setup;
        placeholder.what =
            "sweep interrupted before this job started";
        results.push_back(unexpected(std::move(placeholder)));
    }

    std::atomic<std::size_t> next{0};
    auto work = [&]() {
        for (;;) {
            if (interruptRequested())
                return; // leave the remaining cells as Interrupted
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            results[i] = tryRun(jobs[i]);
        }
    };

    if (workers <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::uint32_t w = 0; w < workers; ++w)
            pool.emplace_back(work);
        for (auto &t : pool)
            t.join();
    }
    return results;
}

std::vector<RunJob>
rateJobs(DesignKind design)
{
    std::vector<RunJob> jobs;
    for (const auto &name : rateWorkloadNames()) {
        RunJob job;
        job.design = design;
        job.rateBenchmark = name;
        jobs.push_back(job);
    }
    return jobs;
}

std::vector<RunJob>
mixJobs(DesignKind design)
{
    std::vector<RunJob> jobs;
    for (const auto &mix : tableThreeMixes()) {
        RunJob job;
        job.design = design;
        job.mix = &mix;
        jobs.push_back(job);
    }
    return jobs;
}

std::vector<RunJob>
allJobs(DesignKind design, const RunnerOptions &options)
{
    std::vector<RunJob> jobs = rateJobs(design);
    const auto &mixes =
        options.allMixes ? allMixes() : tableThreeMixes();
    for (const auto &mix : mixes) {
        RunJob job;
        job.design = design;
        job.mix = &mix;
        jobs.push_back(job);
    }
    return jobs;
}

} // namespace bear
