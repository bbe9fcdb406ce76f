/**
 * @file
 * perfbench: end-to-end and per-layer benchmark of the simulator
 * (perfbench/NOTES.md has the workloads, metrics and noise study).
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--tiny] [--perturb]
 *
 * Every job is built and run through the public calls a runner job
 * makes (sim/runner.cc, sim/single_run.cc): per-core WorkloadStreams
 * seeded as Runner::execute seeds them, a System with a JobControl
 * attached, warm-up, resetStats(), the measured phase, stats().  Set-up,
 * warm-up and the measured phase are timed at those calls.  A pass runs
 * the workload's jobs once, one after another on this thread; a run
 * repeats passes for the time budget and reports its fastest pass
 * (set-up: the median pass).
 *
 * --trace 0 prints the end-to-end metrics.  --trace 1 runs untraced
 * passes for part of the budget, then traced passes that drive a copy
 * of System::step over the same System's public components with a
 * steady-clock span around each layer call on one reference in
 * kSampleEvery, and prints the per-layer metrics.  The traced copy must
 * reproduce the untraced statistics bit for bit; every job also checks
 * three end-of-run identities.  A job that fails either check, or
 * throws, counts as failed.
 *
 * --tiny shrinks every job to a size that runs in well under a second;
 * --perturb feeds the traced copy another seed, so the bit-for-bit
 * check must fail (the self-test's negative case).
 *
 * The last stdout line is one JSON object: correct, attempted (jobs),
 * failed (jobs), metrics {name: {value, unit}}.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "sim/job_control.hh"
#include "sim/metrics.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace bear;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

constexpr std::uint32_t kCores = 8;

/** The runner's default workload seed (RunnerOptions::seed). */
constexpr std::uint64_t kDefaultSeed = 0x5EED;

/** The traced copy times one reference in this many. */
constexpr std::uint64_t kSampleEvery = 16;

struct JobSpec
{
    DesignKind design;
    const char *benchmark;
};

/** One benchmark workload: a job set at one shape (rate mode). */
struct Workload
{
    const char *name;
    double scale;
    std::uint64_t warmupRefsPerCore;
    std::uint64_t measureRefsPerCore;
    std::vector<JobSpec> jobs;
};

std::vector<Workload>
workloads()
{
    std::vector<Workload> all;

    Workload fig12{"pinned-fig12", 0.0625, 12500, 37500, {}};
    for (DesignKind d : {DesignKind::Alloy, DesignKind::Bear,
                         DesignKind::BwOptimized}) {
        for (const char *b : {"mcf", "libquantum", "soplex", "omnetpp"})
            fig12.jobs.push_back({d, b});
    }
    all.push_back(fig12);

    all.push_back({"gigascale-mcf", 1.0, 200000, 75000,
                   {{DesignKind::Alloy, "mcf"}, {DesignKind::Bear, "mcf"}}});

    Workload lbm{"designs-lbm", 0.0625, 12500, 37500, {}};
    for (DesignKind d :
         {DesignKind::Alloy, DesignKind::Bear, DesignKind::InclusiveAlloy,
          DesignKind::LohHill, DesignKind::MostlyClean,
          DesignKind::TagsInSram, DesignKind::SectorCache,
          DesignKind::FootprintCache, DesignKind::BwOptimized,
          DesignKind::NoCache})
        lbm.jobs.push_back({d, "lbm"});
    all.push_back(lbm);
    return all;
}

// ---------------------------------------------------------------------
// Job set-up, counters and checks shared by both loops.

std::vector<std::unique_ptr<RefStream>>
makeStreams(const Workload &w, const JobSpec &job, std::uint64_t seed)
{
    const WorkloadProfile &profile = profileByName(job.benchmark);
    std::vector<std::unique_ptr<RefStream>> streams;
    for (std::uint32_t c = 0; c < kCores; ++c) {
        streams.push_back(std::make_unique<WorkloadStream>(
            profile, seed + 0x1000 * (c + 1), w.scale));
    }
    return streams;
}

/** Runner::systemConfig with the runner's default options; the
 *  workload seed goes only into the streams. */
SystemConfig
systemConfig(const Workload &w, const JobSpec &job, JobControl &control)
{
    SystemConfig config;
    config.design = job.design;
    config.cores = kCores;
    config.scale = w.scale;
    config.control = &control;
    return config;
}

/** Counts read through public getters after the measured phase. */
struct Counters
{
    std::uint64_t l4Hits = 0;
    std::uint64_t l4Reads = 0;
    std::uint64_t l4Writebacks = 0;
    std::uint64_t busBytes = 0;    ///< bloat numerator
    std::uint64_t usefulBytes = 0; ///< bloat denominator
    std::uint64_t arrayReads = 0;
    std::uint64_t arrayWrites = 0;
    std::uint64_t arrayRowHits = 0;
    std::uint64_t ddrReads = 0;
    std::uint64_t ddrWrites = 0;
    std::uint64_t l3Hits = 0;
    std::uint64_t l3Misses = 0;
    std::uint64_t l3DirtyEvictions = 0;
};

Counters
readCounters(System &system)
{
    Counters c;
    const DramCache &l4 = system.dramCache();
    c.l4Hits = l4.demandHits();
    c.l4Reads = l4.demandHits() + l4.demandMisses();
    c.l4Writebacks = l4.writebackLatencyHistogram().count();
    c.busBytes = system.bloat().totalBytes().count();
    c.usefulBytes = system.bloat().usefulBytes().count();
    c.arrayReads = system.cacheDram().totalReads();
    c.arrayWrites = system.cacheDram().totalWrites();
    c.arrayRowHits = system.cacheDram().totalRowHits();
    c.ddrReads = system.mainMemory().totalReads();
    c.ddrWrites = system.mainMemory().totalWrites();
    const SramCache &l3 = system.hierarchy().llc();
    c.l3Hits = l3.hits();
    c.l3Misses = l3.misses();
    c.l3DirtyEvictions = l3.dirtyEvictions();
    return c;
}

/** The three end-of-run identities; empty when all hold. */
std::string
checkIdentities(const SystemStats &stats, const Counters &c)
{
    Bytes categories{0};
    for (Bytes b : stats.bloatBytes)
        categories += b;
    if (categories != stats.l4BytesTransferred) {
        return detail::format("bloat categories sum to ",
                              categories.count(), " B but the L4 bus moved ",
                              stats.l4BytesTransferred.count(), " B");
    }
    if (c.l4Reads != c.l3Misses) {
        return detail::format("L4 demand hits + misses = ", c.l4Reads,
                              " but L3 misses = ", c.l3Misses);
    }
    if (c.l4Writebacks != c.l3DirtyEvictions) {
        return detail::format("L4 writebacks = ", c.l4Writebacks,
                              " but L3 dirty evictions = ",
                              c.l3DirtyEvictions);
    }
    return {};
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size()
        && std::equal(a.begin(), a.end(), b.begin(),
                      [](double x, double y) { return sameBits(x, y); });
}

/** Empty when @p traced equals @p untraced bit for bit. */
std::string
compareStats(const SystemStats &untraced, const SystemStats &traced)
{
    const std::pair<const char *, std::array<double, 2>> scalars[] = {
        {"ipcTotal", {untraced.ipcTotal, traced.ipcTotal}},
        {"l4HitRate", {untraced.l4HitRate, traced.l4HitRate}},
        {"l4HitLatency", {untraced.l4HitLatency, traced.l4HitLatency}},
        {"l4MissLatency", {untraced.l4MissLatency, traced.l4MissLatency}},
        {"l4AvgLatency", {untraced.l4AvgLatency, traced.l4AvgLatency}},
        {"bloatFactor", {untraced.bloatFactor, traced.bloatFactor}},
        {"measuredMpki", {untraced.measuredMpki, traced.measuredMpki}},
    };
    for (const auto &[name, v] : scalars) {
        if (!sameBits(v[0], v[1])) {
            return detail::format("traced ", name, " ", v[1],
                                  " != untraced ", v[0]);
        }
    }
    if (!sameBits(untraced.ipcPerCore, traced.ipcPerCore))
        return "traced ipcPerCore differs";
    if (!sameBits(untraced.bloatBreakdown, traced.bloatBreakdown))
        return "traced bloatBreakdown differs";
    // The schema-v2 report covers the integer fields: cycles, bytes per
    // category, histograms and per-bank counters.
    RunResult a;
    a.stats = untraced;
    RunResult b;
    b.stats = traced;
    if (runResultToJson(a) != runResultToJson(b))
        return "traced schema-v2 report differs";
    return {};
}

// ---------------------------------------------------------------------
// Per-layer spans.

enum Layer : std::size_t
{
    kNext,      ///< RefStream::next
    kTranslate, ///< PageMapper::translate
    kAccess,    ///< CacheHierarchy::access
    kFill,      ///< CacheHierarchy::fillLlc
    kRead,      ///< DramCache::read
    kWriteback, ///< DramCache::writeback
    kCore,      ///< CoreModel calls
    kLayers,
    kEmpty = kLayers, ///< an empty span: the clock's own cost, in place
};

/** Span sums of the traced loop, raw (the clock cost included). */
struct Spans
{
    std::array<double, kLayers + 1> ns{};
    std::array<std::uint64_t, kLayers + 1> count{};
    std::vector<float> readNs; ///< every sampled DramCache::read
    std::uint64_t sampledRefs = 0;

    void
    add(Layer layer, Clock::duration d)
    {
        const double v = std::chrono::duration<double, std::nano>(d).count();
        ns[layer] += v;
        ++count[layer];
        if (layer == kRead)
            readNs.push_back(static_cast<float>(v));
    }

    /** Mean raw empty span, subtracted from every span. */
    double
    emptyNs() const
    {
        return count[kEmpty]
            ? ns[kEmpty] / static_cast<double>(count[kEmpty])
            : 0.0;
    }

    /** Host ns per sampled reference in @p layer, clock cost removed. */
    double
    perRef(Layer layer) const
    {
        return (ns[layer] - emptyNs() * static_cast<double>(count[layer]))
            / static_cast<double>(sampledRefs);
    }
};

/** Times its scope into @p spans, or does nothing when null. */
class SpanTimer
{
  public:
    SpanTimer(Spans *spans, Layer layer) : spans_(spans), layer_(layer)
    {
        if (spans_)
            start_ = Clock::now();
    }
    ~SpanTimer()
    {
        if (spans_)
            spans_->add(layer_, Clock::now() - start_);
    }
    SpanTimer(const SpanTimer &) = delete;
    SpanTimer &operator=(const SpanTimer &) = delete;

  private:
    Spans *spans_;
    Layer layer_;
    Clock::time_point start_;
};

/** A RefStream the System holds but the traced loop never calls. */
struct UnusedStream final : RefStream
{
    MemRef
    next() override
    {
        bear_panic("perfbench: the traced loop owns the streams");
    }
};

/**
 * A copy of System::run and System::step (sim/system.cc) driven from
 * outside, over the System's public components, with a span around
 * each layer call on sampled references.  It keeps its own streams,
 * page mapper, cores and writeback heap, because the System's are
 * private; the design, hierarchy and DRAM models are the System's own.
 */
class TracedLoop
{
  public:
    TracedLoop(System &system,
               std::vector<std::unique_ptr<RefStream>> streams,
               Spans &spans)
        : system_(system), streams_(std::move(streams)), spans_(spans)
    {
        const SystemConfig &config = system.config();
        for (CoreId c = 0; c < config.cores; ++c)
            cores_.emplace_back(c, config.baseCpi);
    }

    void
    run(std::uint64_t refs_per_core)
    {
        const std::uint32_t cores = system_.config().cores;
        const std::uint64_t total = refs_per_core * cores;
        std::vector<std::uint64_t> quota(cores, refs_per_core);

        JobControl *const control = system_.config().control;
        for (std::uint64_t i = 0; i < total; ++i) {
            if (control) {
                control->progress.fetch_add(1, std::memory_order_relaxed);
                const CancelReason why = control->cancelReason();
                if (why != CancelReason::None)
                    throw JobCancelled{why, {}};
            }
            CoreId best = cores;
            Cycle earliest = ~Cycle{0};
            for (CoreId c = 0; c < cores; ++c) {
                if (quota[c] == 0)
                    continue;
                if (cores_[c].nextReady() < earliest) {
                    earliest = cores_[c].nextReady();
                    best = c;
                }
            }
            bear_assert(best < cores, "no runnable core");
            --quota[best];
            step(best, refs_seen_++ % kSampleEvery == 0);
        }
        flushWritebacks(~Cycle{0}, false);
    }

    void
    resetStats()
    {
        system_.resetStats();
        for (auto &core : cores_)
            core.markEpoch();
        llc_misses_ = 0;
    }

    /** System::stats() with the core-derived fields from this loop. */
    SystemStats
    stats() const
    {
        SystemStats s = system_.stats();
        s.ipcPerCore.clear();
        s.ipcTotal = 0.0;
        s.execCycles = 0;
        std::uint64_t instructions = 0;
        for (const auto &core : cores_) {
            s.ipcPerCore.push_back(core.ipcSinceEpoch());
            s.ipcTotal += core.ipcSinceEpoch();
            s.execCycles = std::max(s.execCycles, core.cyclesSinceEpoch());
            instructions += core.instructionsSinceEpoch();
        }
        s.measuredMpki = instructions
            ? 1000.0 * static_cast<double>(llc_misses_)
                / static_cast<double>(instructions)
            : 0.0;
        return s;
    }

    std::uint64_t frames() const { return mapper_.framesAllocated(); }

  private:
    struct IssuedLater
    {
        bool
        operator()(const WritebackRequest &a,
                   const WritebackRequest &b) const
        {
            return a.issuedAt > b.issuedAt;
        }
    };

    void
    flushWritebacks(Cycle now, bool sampled)
    {
        if (now < wb_next_due_)
            return;
        DramCache &l4 = system_.dramCache();
        while (!wb_queue_.empty() && wb_queue_.front().issuedAt <= now) {
            const WritebackRequest wb = wb_queue_.front();
            std::pop_heap(wb_queue_.begin(), wb_queue_.end(),
                          IssuedLater{});
            wb_queue_.pop_back();
            SpanTimer timer(sampled ? &spans_ : nullptr, kWriteback);
            l4.writeback(wb);
        }
        wb_next_due_ =
            wb_queue_.empty() ? ~Cycle{0} : wb_queue_.front().issuedAt;
    }

    void
    step(CoreId core_id, bool sampled)
    {
        Spans *const on = sampled ? &spans_ : nullptr;
        if (sampled) {
            ++spans_.sampledRefs;
            // One untimed read first: the empty span and the layer
            // spans after it then all see a warm clock path.
            (void)Clock::now();
            SpanTimer empty(on, kEmpty);
        }
        CoreModel &core = cores_[core_id];
        MemRef ref;
        {
            SpanTimer timer(on, kNext);
            ref = streams_[core_id]->next();
        }
        {
            SpanTimer timer(on, kCore);
            core.advanceInstructions(ref.instGap);
        }
        flushWritebacks(core.cycle(), sampled);

        Addr paddr;
        {
            SpanTimer timer(on, kTranslate);
            paddr = mapper_.translate(core_id, ref.vaddr);
        }
        const LineAddr line = lineOf(paddr);

        HierarchyOutcome outcome;
        {
            SpanTimer timer(on, kAccess);
            outcome = system_.hierarchy().access(core_id, line, ref.isWrite);
        }
        if (!outcome.llcMiss) {
            SpanTimer timer(on, kCore);
            core.completeOnChip(outcome.onChipLatency, ref.dependent);
            return;
        }

        ++llc_misses_;
        const Cycle issue = core.cycle() + outcome.onChipLatency;
        DramCacheReadOutcome read;
        {
            SpanTimer timer(on, kRead);
            read = system_.dramCache().read(issue, line, ref.pc, core_id);
        }
        std::optional<WritebackRequest> wb;
        {
            SpanTimer timer(on, kFill);
            wb = system_.hierarchy().fillLlc(line, ref.isWrite,
                                             read.presentAfter);
        }
        if (wb) {
            wb->issuedAt = read.dataReady;
            wb_queue_.push_back(*wb);
            std::push_heap(wb_queue_.begin(), wb_queue_.end(),
                           IssuedLater{});
            wb_next_due_ = std::min(wb_next_due_, wb->issuedAt);
        }
        SpanTimer timer(on, kCore);
        core.completeMiss(read.dataReady, ref.dependent);
    }

    System &system_;
    std::vector<std::unique_ptr<RefStream>> streams_;
    Spans &spans_;
    std::vector<CoreModel> cores_;
    PageMapper mapper_;
    std::vector<WritebackRequest> wb_queue_;
    Cycle wb_next_due_ = ~Cycle{0};
    std::uint64_t llc_misses_ = 0;
    std::uint64_t refs_seen_ = 0;
};

// ---------------------------------------------------------------------
// Jobs and passes.

/** One job's timings, statistics and verdict. */
struct JobRecord
{
    double setupS = 0.0;
    double warmupS = 0.0;
    double measureS = 0.0;
    SystemStats stats;
    Counters counters;
    std::uint64_t frames = 0; ///< traced jobs only
    std::string failure;      ///< empty when the job passed its checks
};

/**
 * Run @p body inside a containment scope, the way the runner contains a
 * job: a panic, a fatal or an exception becomes the job's RunError.
 */
template <typename Body>
JobRecord
contained(const Workload &w, const JobSpec &job, Body &&body)
{
    JobRecord rec;
    JobControl control;
    JobPhase phase = JobPhase::Setup;
    RunError err;
    err.key = w.name;
    err.workload = job.benchmark;
    err.design = designName(job.design);
    try {
        ContainmentScope contain;
        body(rec, control, phase);
        if (!rec.failure.empty())
            err.what = rec.failure;
    } catch (const ContainedFailure &failure) {
        err.what = failure.message;
    } catch (const JobCancelled &) {
        err.what = "cancelled";
    } catch (const std::exception &e) {
        err.what = e.what();
    }
    if (!err.what.empty()) {
        err.phase = phase;
        rec.failure = err.message();
    }
    return rec;
}

/**
 * Warm-up, resetStats(), the measured phase and stats() on @p sim (a
 * System or a TracedLoop), each timed at its call.  @p t0 is when the
 * job's set-up began.
 */
template <typename Sim>
void
runPhases(const Workload &w, Sim &sim, Clock::time_point t0,
          JobRecord &rec, JobControl &control, JobPhase &phase)
{
    const auto t1 = Clock::now();
    phase = JobPhase::Warmup;
    control.setPhase("warmup");
    sim.run(w.warmupRefsPerCore);
    sim.resetStats();
    const auto t2 = Clock::now();
    phase = JobPhase::Measure;
    control.setPhase("measure");
    sim.run(w.measureRefsPerCore);
    const auto t3 = Clock::now();
    rec.stats = sim.stats();
    rec.setupS = secondsBetween(t0, t1);
    rec.warmupS = secondsBetween(t1, t2);
    rec.measureS = secondsBetween(t2, t3);
}

JobRecord
runUntraced(const Workload &w, const JobSpec &job, std::uint64_t seed)
{
    return contained(w, job, [&](JobRecord &rec, JobControl &control,
                                 JobPhase &phase) {
        const auto t0 = Clock::now();
        System system(systemConfig(w, job, control),
                      makeStreams(w, job, seed));
        runPhases(w, system, t0, rec, control, phase);
        rec.counters = readCounters(system);
        rec.failure = checkIdentities(rec.stats, rec.counters);
    });
}

JobRecord
runTraced(const Workload &w, const JobSpec &job, std::uint64_t seed,
          Spans &spans, const SystemStats &untraced)
{
    return contained(w, job, [&](JobRecord &rec, JobControl &control,
                                 JobPhase &phase) {
        const auto t0 = Clock::now();
        std::vector<std::unique_ptr<RefStream>> idle;
        for (std::uint32_t c = 0; c < kCores; ++c)
            idle.push_back(std::make_unique<UnusedStream>());
        System system(systemConfig(w, job, control), std::move(idle));
        TracedLoop loop(system, makeStreams(w, job, seed), spans);
        runPhases(w, loop, t0, rec, control, phase);
        rec.counters = readCounters(system);
        rec.frames = loop.frames();
        rec.failure = checkIdentities(rec.stats, rec.counters);
        if (rec.failure.empty())
            rec.failure = compareStats(untraced, rec.stats);
    });
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** One pass over a workload's jobs. */
struct Pass
{
    std::vector<JobRecord> jobs;
    double wallS = 0.0; ///< first set-up to last stats

    double
    sum(double JobRecord::*field) const
    {
        double total = 0.0;
        for (const JobRecord &j : jobs)
            total += j.*field;
        return total;
    }
};

/** Everything a run accumulates across its passes. */
struct RunLog
{
    std::vector<Pass> untraced;
    std::vector<Pass> traced;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** ru_maxrss after the first pass: later passes grow the heap by
     *  the records a run keeps, so a later reading would depend on how
     *  many passes fit in the budget. */
    double onePassPeakMb = 0.0;

    /** Count @p pass's jobs, report its failures and keep it. */
    void
    record(std::vector<Pass> &passes, Pass pass)
    {
        if (untraced.empty() && traced.empty())
            onePassPeakMb = peakRssMb();
        for (const JobRecord &j : pass.jobs) {
            ++attempted;
            if (!j.failure.empty()) {
                ++failed;
                std::fprintf(stderr, "perfbench: %s\n", j.failure.c_str());
            }
        }
        std::fprintf(stderr, "perfbench: %s pass %zu: %.3f s, peak %.1f MB\n",
                     &passes == &traced ? "traced" : "untraced",
                     passes.size() + 1, pass.wallS, peakRssMb());
        passes.push_back(std::move(pass));
    }
};

template <typename RunJob>
Pass
runPass(const Workload &w, RunJob &&runJob)
{
    Pass pass;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
        pass.jobs.push_back(runJob(i));
    pass.wallS = secondsBetween(start, Clock::now());
    return pass;
}

/** Repeat @p round until the next one would overrun @p budget. */
template <typename Round>
void
repeatFor(double budget, Round &&round)
{
    const auto start = Clock::now();
    double longest = 0.0;
    do {
        const auto before = Clock::now();
        round();
        longest = std::max(longest, secondsBetween(before, Clock::now()));
    } while (secondsBetween(start, Clock::now()) + longest <= budget);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double
medianOver(const std::vector<Pass> &passes, F &&f)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        v.push_back(f(p));
    return median(v);
}

/** The smallest f(pass): the fastest pass, for a time. */
template <typename F>
double
minOver(const std::vector<Pass> &passes, F &&f)
{
    double least = f(passes.front());
    for (const Pass &p : passes)
        least = std::min(least, f(p));
    return least;
}

std::uint64_t
refsPerJob(const Workload &w, bool measureOnly)
{
    return (measureOnly ? 0 : w.warmupRefsPerCore) * kCores
        + w.measureRefsPerCore * kCores;
}

// ---------------------------------------------------------------------
// Host probes: fixed work that tells host drift from a code change.

/** ns per step of a dependent xorshift chain. */
double
aluProbeNs()
{
    constexpr std::uint64_t kSteps = 1ULL << 25;
    volatile std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
    std::uint64_t x = seed;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count();
    seed = x;
    return ns / static_cast<double>(kSteps);
}

/** ns per load of a pointer chase around a random 48 MiB cycle. */
double
memLatencyProbeNs()
{
    struct alignas(64) Node
    {
        std::uint32_t next;
    };
    constexpr std::uint32_t kNodes = (48u << 20) / sizeof(Node);
    constexpr std::uint64_t kLoads = 1ULL << 21;
    std::vector<Node> nodes(kNodes);
    std::vector<std::uint32_t> order(kNodes);
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(0xC4A5E);
    // Sattolo's shuffle: one cycle through every node.
    for (std::uint32_t i = kNodes - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i)]);
    for (std::uint32_t i = 0; i < kNodes; ++i)
        nodes[order[i]].next = order[(i + 1) % kNodes];

    volatile std::uint32_t sink = 0;
    std::uint32_t at = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kLoads; ++i)
        at = nodes[at].next;
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count();
    sink = at;
    (void)sink;
    return ns / static_cast<double>(kLoads);
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

void
print(const std::vector<Metric> &table, const std::vector<Metric> &json,
      const RunLog &log)
{
    for (const Metric &m : table)
        std::printf("%-34s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                log.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(log.attempted),
                static_cast<unsigned long long>(log.failed));
    for (std::size_t i = 0; i < json.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", json[i].name.c_str(), json[i].value,
                    json[i].unit.c_str());
    }
    std::printf("}}\n");
}

std::vector<Metric>
endToEnd(const Workload &w, const RunLog &log)
{
    // Other tenants of the host only ever slow a pass, and a slow spell
    // can outlast a whole run, so the run's fastest pass is its steadiest
    // estimate of the program's own cost (perfbench/NOTES.md, "Host
    // noise").  Set-up, a few page-faulting milliseconds, is a median.
    const std::vector<Pass> &passes = log.untraced;
    const double jobs = static_cast<double>(w.jobs.size());
    const double refs = static_cast<double>(refsPerJob(w, false)) * jobs;
    const double measured =
        static_cast<double>(refsPerJob(w, true)) * jobs;
    return {
        {"sim_refs_per_s", "refs/s",
         refs / minOver(passes, [](const Pass &p) {
             return p.sum(&JobRecord::warmupS) + p.sum(&JobRecord::measureS);
         })},
        {"measure_refs_per_s", "refs/s",
         measured / minOver(passes, [](const Pass &p) {
             return p.sum(&JobRecord::measureS);
         })},
        {"wall_s", "s",
         minOver(passes, [](const Pass &p) { return p.wallS; })},
        {"setup_s", "s", medianOver(passes, [](const Pass &p) {
             return p.sum(&JobRecord::setupS);
         })},
        {"peak_rss_mb", "MB", log.onePassPeakMb},
    };
}

std::vector<Metric>
perLayer(const Workload &w, const RunLog &log, const Spans &spans)
{
    const Pass &first = log.untraced.front();
    Counters sum;
    std::uint64_t frames = 0;
    Cycle execCycles = 0;
    double ipc = 0.0;
    obs::LatencyHistogram hit;
    obs::LatencyHistogram miss;
    obs::LatencyHistogram queue;
    for (const JobRecord &j : first.jobs) {
        const Counters &c = j.counters;
        sum.l4Hits += c.l4Hits;
        sum.l4Reads += c.l4Reads;
        sum.l4Writebacks += c.l4Writebacks;
        sum.busBytes += c.busBytes;
        sum.usefulBytes += c.usefulBytes;
        sum.arrayReads += c.arrayReads;
        sum.arrayWrites += c.arrayWrites;
        sum.arrayRowHits += c.arrayRowHits;
        sum.ddrReads += c.ddrReads;
        sum.ddrWrites += c.ddrWrites;
        sum.l3Hits += c.l3Hits;
        sum.l3Misses += c.l3Misses;
        ipc += j.stats.ipcTotal;
        execCycles += j.stats.execCycles;
        hit.merge(j.stats.l4HitLatencyHist);
        miss.merge(j.stats.l4MissLatencyHist);
        queue.merge(j.stats.l4QueueDelayHist);
    }
    for (const JobRecord &j : log.traced.front().jobs)
        frames += j.frames;

    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };
    std::vector<float> reads = spans.readNs;
    std::sort(reads.begin(), reads.end());
    const auto readPct = [&](double q) {
        if (reads.empty())
            return 0.0;
        const auto i = static_cast<std::size_t>(
            q * static_cast<double>(reads.size() - 1));
        return static_cast<double>(reads[i]) - spans.emptyNs();
    };

    const double refs =
        static_cast<double>(refsPerJob(w, false) * w.jobs.size());
    const auto nsPerRef = [&](const std::vector<Pass> &passes) {
        return medianOver(passes, [&](const Pass &p) {
            return 1e9 * (p.sum(&JobRecord::warmupS)
                          + p.sum(&JobRecord::measureS))
                / refs;
        });
    };
    const double untracedNs = nsPerRef(log.untraced);
    double layerSum = 0.0;
    for (std::size_t l = 0; l < kLayers; ++l)
        layerSum += spans.perRef(static_cast<Layer>(l));

    return {
        {"workloads.next_ns", "ns", spans.perRef(kNext)},
        {"vm.translate_ns", "ns", spans.perRef(kTranslate)},
        {"vm.frames", "count", static_cast<double>(frames)},
        {"cache.access_ns", "ns", spans.perRef(kAccess)},
        {"cache.fill_ns", "ns", spans.perRef(kFill)},
        {"cache.l3_hit_ratio", "ratio",
         ratio(sum.l3Hits, sum.l3Hits + sum.l3Misses)},
        {"dramcache.read_ns", "ns", spans.perRef(kRead)},
        {"dramcache.read_p50_ns", "ns", readPct(0.50)},
        {"dramcache.read_p99_ns", "ns", readPct(0.99)},
        {"dramcache.read_samples", "count",
         static_cast<double>(spans.readNs.size())},
        {"dramcache.writeback_ns", "ns", spans.perRef(kWriteback)},
        {"dramcache.reads", "count", static_cast<double>(sum.l4Reads)},
        {"dramcache.writebacks", "count",
         static_cast<double>(sum.l4Writebacks)},
        {"dramcache.hit_ratio", "ratio", ratio(sum.l4Hits, sum.l4Reads)},
        {"dramcache.bloat_factor", "B/B",
         ratio(sum.busBytes, sum.usefulBytes)},
        {"mem.l4_reads", "count", static_cast<double>(sum.arrayReads)},
        {"mem.l4_writes", "count", static_cast<double>(sum.arrayWrites)},
        {"mem.l4_row_hit_ratio", "ratio",
         ratio(sum.arrayRowHits, sum.arrayReads + sum.arrayWrites)},
        {"mem.ddr_reads", "count", static_cast<double>(sum.ddrReads)},
        {"mem.ddr_writes", "count", static_cast<double>(sum.ddrWrites)},
        {"core.ns", "ns", spans.perRef(kCore)},
        {"sim.loop_self_ns", "ns", untracedNs - layerSum},
        {"sim.warmup_s", "s", medianOver(log.untraced, [](const Pass &p) {
             return p.sum(&JobRecord::warmupS);
         })},
        {"sim.measure_s", "s", medianOver(log.untraced, [](const Pass &p) {
             return p.sum(&JobRecord::measureS);
         })},
        {"sim.jobs", "count", static_cast<double>(log.attempted)},
        {"sim.jobs_failed", "count", static_cast<double>(log.failed)},
        {"model.ipc", "instr/cycle",
         ipc / static_cast<double>(first.jobs.size())},
        {"model.exec_cycles", "cycles", static_cast<double>(execCycles)},
        {"model.l4_hit_latency_cycles", "cycles", hit.mean()},
        {"model.l4_miss_latency_cycles", "cycles", miss.mean()},
        {"model.l4_queue_delay_p99_cycles", "cycles",
         static_cast<double>(queue.percentile(0.99).count())},
        {"trace.overhead_ratio", "ratio",
         nsPerRef(log.traced) / untracedNs},
    };
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] [--tiny] "
                 "[--perturb]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool perturb = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tiny" || arg == "--perturb") {
            (arg == "--tiny" ? tiny : perturb) = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload")
            name = value;
        else if (arg == "--seed")
            seed = std::strtoull(value, nullptr, 0);
        else if (arg == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (arg == "--trace")
            trace = std::strcmp(value, "0") != 0;
        else
            usage(("unknown argument " + arg).c_str());
    }

    const std::vector<Workload> all = workloads();
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const Workload &w) {
                                     return name == w.name;
                                 });
    if (it == all.end())
        usage(("unknown workload '" + name + "'").c_str());
    Workload w = *it;
    if (tiny) {
        // The job shape at a size that runs in well under a second.
        w.warmupRefsPerCore /= 50;
        w.measureRefsPerCore /= 50;
    }

    // Pin glibc's mmap threshold at its default.  Left dynamic, it
    // rises after the first job frees its tag planes, later jobs reuse
    // a fragmenting heap, and RSS grows with the number of passes.
    // Pinned, every large block is a fresh mapping unmapped on free, so
    // each job starts from fresh pages as it would in its own process
    // and peak_rss_mb is the largest job's.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    RunLog log;
    std::vector<Metric> table;
    std::vector<Metric> json;
    const auto untracedPass = [&] {
        log.record(log.untraced, runPass(w, [&](std::size_t j) {
                       return runUntraced(w, w.jobs[j], seed);
                   }));
    };
    if (!trace) {
        repeatFor(seconds, untracedPass);
        json = endToEnd(w, log);
        table = json;
    } else {
        // Untraced and traced passes alternate, so host drift reaches
        // both alike.  Every traced job must reproduce its job in the
        // first untraced pass.
        Spans spans;
        repeatFor(seconds, [&] {
            untracedPass();
            const Pass &reference = log.untraced.front();
            log.record(log.traced, runPass(w, [&](std::size_t j) {
                           return runTraced(w, w.jobs[j],
                                            perturb ? seed + 1 : seed,
                                            spans, reference.jobs[j].stats);
                       }));
        });
        json = perLayer(w, log, spans);
        table = endToEnd(w, log);
        table.insert(table.end(), json.begin(), json.end());
        table.push_back({"trace.empty_span_ns", "ns", spans.emptyNs()});
    }

    const std::vector<Metric> host = {
        {"host.alu_ns", "ns", aluProbeNs()},
        {"host.mem_latency_ns", "ns", memLatencyProbeNs()},
    };
    table.insert(table.end(), host.begin(), host.end());
    if (trace)
        json.insert(json.end(), host.begin(), host.end());

    std::printf("perfbench %s seed=%llu passes=%zu+%zu%s\n", w.name,
                static_cast<unsigned long long>(seed), log.untraced.size(),
                log.traced.size(), tiny ? " (tiny)" : "");
    print(table, json, log);
    return 0;
}
