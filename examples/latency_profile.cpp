/**
 * @file
 * Observability tour: run one workload with the event trace enabled
 * and read the run as *distributions* instead of averages — latency
 * percentiles, queue-depth histogram, per-bank utilization, and the
 * event trace's per-kind event counts.
 *
 *   ./latency_profile [workload] [design]
 *
 * e.g. ./latency_profile mcf BEAR
 *
 * This is the programmatic face of the same data the bench binaries
 * export via BEAR_JSON and tools/trace_stats digests offline.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/event_trace.hh"
#include "obs/histogram.hh"
#include "sim/report.hh"
#include "sim/runner.hh"

using namespace bear;

namespace
{

DesignKind
parseDesign(const std::string &name)
{
    const DesignKind kinds[] = {
        DesignKind::Alloy,       DesignKind::Bab,
        DesignKind::BabDcp,      DesignKind::Bear,
        DesignKind::InclusiveAlloy, DesignKind::LohHill,
        DesignKind::MostlyClean, DesignKind::TagsInSram,
        DesignKind::SectorCache, DesignKind::BwOptimized,
        DesignKind::NoCache,
    };
    for (const DesignKind kind : kinds)
        if (name == designName(kind))
            return kind;
    std::fprintf(stderr, "unknown design '%s', using BEAR\n",
                 name.c_str());
    return DesignKind::Bear;
}

void
printLatencyLine(const char *name, const obs::LatencyHistogram &hist)
{
    std::printf("  %-22s n=%-9llu mean=%-8.1f p50=%-6llu p95=%-6llu "
                "p99=%-6llu max=%llu\n",
                name, static_cast<unsigned long long>(hist.count()),
                hist.mean(),
                static_cast<unsigned long long>(
                    hist.percentile(0.50).count()),
                static_cast<unsigned long long>(
                    hist.percentile(0.95).count()),
                static_cast<unsigned long long>(
                    hist.percentile(0.99).count()),
                static_cast<unsigned long long>(hist.max().count()));
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "mcf";
    const DesignKind design = parseDesign(argc > 2 ? argv[2] : "BEAR");

    RunnerOptions options = RunnerOptions::fromEnv();
    if (options.traceCapacity == 0)
        options.traceCapacity = 4096; // the point of this example
    Runner runner(options);

    std::printf("Latency profile: %s on %s (trace ring: %zu events)\n\n",
                workload.c_str(), designName(design),
                options.traceCapacity);
    const RunResult run = runner.runRate(design, workload);
    const SystemStats &stats = run.stats;
    if (maybeWriteJsonReport(runResultToJson(run)))
        std::printf("(run appended to $BEAR_JSON as a JSON line)\n\n");

    std::printf("Latency distributions (cycles):\n");
    printLatencyLine("L4 hit", stats.l4HitLatencyHist);
    printLatencyLine("L4 miss", stats.l4MissLatencyHist);
    printLatencyLine("L4 queue delay", stats.l4QueueDelayHist);
    printLatencyLine("memory queue delay", stats.memQueueDelayHist);
    std::printf("  (histogram means match the scalar stats: hit %.1f, "
                "miss %.1f)\n\n",
                stats.l4HitLatency, stats.l4MissLatency);

    std::printf("L4 write-queue depth: mean %.1f, p95 %llu, max %llu\n\n",
                stats.l4WriteQueueDepthHist.mean(),
                static_cast<unsigned long long>(
                    stats.l4WriteQueueDepthHist.percentile(0.95).count()),
                static_cast<unsigned long long>(
                    stats.l4WriteQueueDepthHist.max().count()));

    // The five busiest banks: where bandwidth bloat turns into queueing.
    std::vector<BankUtilization> banks = stats.l4Banks;
    std::sort(banks.begin(), banks.end(),
              [](const BankUtilization &a, const BankUtilization &b) {
                  return a.utilization > b.utilization;
              });
    std::printf("Busiest DRAM-cache banks:\n");
    for (std::size_t i = 0; i < banks.size() && i < 5; ++i) {
        const BankUtilization &b = banks[i];
        std::printf("  ch%u bank%-3u util=%5.1f%% reads=%-8llu "
                    "rowHits=%-8llu conflictStall=%llu\n",
                    b.channel, b.bank, 100.0 * b.utilization,
                    static_cast<unsigned long long>(b.reads),
                    static_cast<unsigned long long>(b.rowHits),
                    static_cast<unsigned long long>(
                        b.conflictStallCycles.count()));
    }

    if (stats.trace.enabled) {
        std::printf("\nEvent trace: %llu recorded, %llu dropped "
                    "(ring keeps the newest)\n",
                    static_cast<unsigned long long>(stats.trace.recorded),
                    static_cast<unsigned long long>(stats.trace.dropped));
        for (std::size_t k = 0; k < stats.trace.kindCounts.size(); ++k) {
            if (stats.trace.kindCounts[k]) {
                std::printf("  %-18s %llu\n",
                            obs::traceEventName(
                                static_cast<obs::TraceEventKind>(k)),
                            static_cast<unsigned long long>(
                                stats.trace.kindCounts[k]));
            }
        }
    }
    return 0;
}
