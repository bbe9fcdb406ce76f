/**
 * @file
 * Pinned end-to-end perf baseline (DESIGN.md §14): times fig12-style
 * runs — Alloy / BEAR / BW-Optimized over a fixed rate-workload
 * subset — and reports simulated references retired per wall-clock
 * second, the repo's headline throughput number (ROADMAP item 1).
 *
 * The configuration is pinned in code, NOT read from BEAR_* overrides:
 * every invocation measures the same work, so successive BENCH_fig12
 * snapshots form a comparable trajectory across PRs.  The only knob is
 * BEAR_BENCH_FIG12_OUT (output path, default BENCH_fig12.json in the
 * working directory).
 *
 * The emitted document is re-parsed with common/json before the
 * process exits 0, so a malformed snapshot can never land silently —
 * tools/ci.sh step 10 relies on that contract.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/runner.hh"

using namespace bear;

namespace
{

/** One timed cell: a design over one pinned rate workload. */
struct TimedJob
{
    std::string design;
    std::string workload;
    std::uint64_t refs = 0; ///< simulated refs retired (all cores)
    double seconds = 0.0;   ///< wall-clock for the whole job
};

RunnerOptions
pinnedOptions()
{
    RunnerOptions options;
    options.scale = 0.0625;
    options.warmupRefsPerCore = 50000;
    options.measureRefsPerCore = 150000;
    options.cores = 8;
    options.bandwidthRatio = 8;
    options.totalBanks = 64;
    options.cacheCapacityBytes = 1ULL << 30;
    options.seed = 0x5EED;
    options.workers = 1; // timing wants a quiet machine, not a pool
    return options;
}

} // namespace

int
main()
{
    const RunnerOptions options = pinnedOptions();
    Runner runner(options);

    const DesignKind designs[] = {DesignKind::Alloy, DesignKind::Bear,
                                  DesignKind::BwOptimized};
    const char *workloads[] = {"mcf", "libquantum", "soplex",
                               "omnetpp"};
    const std::uint64_t refsPerJob =
        (options.warmupRefsPerCore + options.measureRefsPerCore)
        * options.cores;

    std::vector<TimedJob> cells;
    std::uint64_t totalRefs = 0;
    double totalSeconds = 0.0;
    for (DesignKind design : designs) {
        for (const char *workload : workloads) {
            RunJob job;
            job.design = design;
            job.rateBenchmark = workload;
            const double start = wallSeconds();
            (void)runner.run(job);
            const double elapsed = wallSeconds() - start;

            TimedJob cell;
            cell.design = designName(design);
            cell.workload = workload;
            cell.refs = refsPerJob;
            cell.seconds = elapsed;
            cells.push_back(cell);
            totalRefs += refsPerJob;
            totalSeconds += elapsed;
            std::printf("%-12s %-12s %8.3f s  %12.0f refs/s\n",
                        cell.design.c_str(), workload, elapsed,
                        static_cast<double>(refsPerJob) / elapsed);
        }
    }

    const double aggregate =
        static_cast<double>(totalRefs) / totalSeconds;
    std::printf("aggregate: %llu refs in %.3f s = %.0f refs/s\n",
                static_cast<unsigned long long>(totalRefs),
                totalSeconds, aggregate);

    JsonWriter w;
    w.beginObject();
    w.field("schema", std::string("bear-bench-fig12-v1"));
    w.beginObject("config");
    w.field("scale", options.scale);
    w.field("warmupRefsPerCore", options.warmupRefsPerCore);
    w.field("measureRefsPerCore", options.measureRefsPerCore);
    w.field("cores", std::uint64_t{options.cores});
    w.field("workers", std::uint64_t{options.workers});
    w.field("seed", options.seed);
    w.endObject();
    w.beginArray("jobs");
    for (const TimedJob &cell : cells) {
        w.beginObject();
        w.field("design", cell.design);
        w.field("workload", cell.workload);
        w.field("refs", cell.refs);
        w.field("seconds", cell.seconds);
        w.field("refsPerSec",
                static_cast<double>(cell.refs) / cell.seconds);
        w.endObject();
    }
    w.endArray();
    w.beginObject("aggregate");
    w.field("refs", totalRefs);
    w.field("seconds", totalSeconds);
    w.field("refsPerSec", aggregate);
    w.endObject();
    w.endObject();
    const std::string doc = w.str();

    // Self-check: the snapshot must parse and carry the headline
    // number, or this run does not count as having produced one.
    const auto parsed = JsonValue::parse(doc);
    if (!parsed.hasValue()) {
        std::fprintf(stderr, "BENCH_fig12 self-check failed: %s\n",
                     parsed.error().message().c_str());
        return 1;
    }
    if (!(*parsed)["aggregate"].find("refsPerSec")) {
        std::fprintf(stderr, "BENCH_fig12 self-check failed: no "
                             "aggregate.refsPerSec\n");
        return 1;
    }

    const char *env = std::getenv("BEAR_BENCH_FIG12_OUT");
    const std::string path = env ? env : "BENCH_fig12.json";
    std::ofstream out(path, std::ios::trunc);
    out << doc << "\n";
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
