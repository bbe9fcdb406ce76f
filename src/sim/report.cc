#include "sim/report.hh"

#include <cstdio>
#include <cstdlib>

#include "common/json.hh"
#include "dramcache/bloat.hh"

namespace bear
{

namespace
{

/** Summary + the populated log2 buckets of one distribution. */
template <typename Unit>
void
writeHistogram(JsonWriter &json, const std::string &key,
               const obs::Histogram<Unit> &hist)
{
    json.beginObject(key);
    json.field("count", hist.count());
    json.field("mean", hist.mean());
    json.field("min", hist.min().count());
    json.field("max", hist.max().count());
    json.field("p50", hist.percentile(0.50).count());
    json.field("p95", hist.percentile(0.95).count());
    json.field("p99", hist.percentile(0.99).count());
    json.beginArray("buckets");
    for (int i = 0; i < obs::Histogram<Unit>::kBuckets; ++i) {
        if (hist.bucketCount(i) == 0)
            continue;
        json.beginObject();
        json.field("low", obs::Histogram<Unit>::bucketLow(i));
        json.field("count", hist.bucketCount(i));
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

void
writeStats(JsonWriter &json, const SystemStats &stats)
{
    json.beginObject("stats");
    json.field("schemaVersion",
               static_cast<std::int64_t>(SystemStats::kSchemaVersion));
    json.field("ipcTotal", stats.ipcTotal);
    json.field("execCycles",
               static_cast<std::uint64_t>(stats.execCycles));
    json.field("l4HitRate", stats.l4HitRate);
    json.field("l4HitLatency", stats.l4HitLatency);
    json.field("l4MissLatency", stats.l4MissLatency);
    json.field("l4AvgLatency", stats.l4AvgLatency);
    json.field("bloatFactor", stats.bloatFactor);
    json.field("measuredMpki", stats.measuredMpki);
    json.field("sramOverheadBytes", stats.sramOverheadBytes.count());
    json.field("l4BytesTransferred", stats.l4BytesTransferred.count());
    json.field("memBytesTransferred", stats.memBytesTransferred.count());
    json.beginArray("bloatBreakdown");
    for (std::size_t c = 0; c < stats.bloatBreakdown.size(); ++c) {
        json.beginObject();
        json.field("category",
                   bloatCategoryName(static_cast<BloatCategory>(c)));
        json.field("factor", stats.bloatBreakdown[c]);
        if (c < stats.bloatBytes.size())
            json.field("bytes", stats.bloatBytes[c].count());
        json.endObject();
    }
    json.endArray();
    json.beginArray("ipcPerCore");
    for (double ipc : stats.ipcPerCore)
        json.value(ipc);
    json.endArray();

    // Schema v2: full distributions behind the scalar summaries.
    json.beginObject("histograms");
    writeHistogram(json, "l4HitLatency", stats.l4HitLatencyHist);
    writeHistogram(json, "l4MissLatency", stats.l4MissLatencyHist);
    writeHistogram(json, "l4QueueDelay", stats.l4QueueDelayHist);
    writeHistogram(json, "memQueueDelay", stats.memQueueDelayHist);
    writeHistogram(json, "l4WriteQueueDepth",
                   stats.l4WriteQueueDepthHist);
    json.endObject();

    json.beginArray("perBank");
    for (const BankUtilization &bank : stats.l4Banks) {
        json.beginObject();
        json.field("channel", static_cast<std::uint64_t>(bank.channel));
        json.field("bank", static_cast<std::uint64_t>(bank.bank));
        json.field("reads", bank.reads);
        json.field("writes", bank.writes);
        json.field("rowHits", bank.rowHits);
        json.field("rowConflicts", bank.rowConflicts);
        json.field("busyCycles", bank.busyCycles.count());
        json.field("conflictStallCycles",
                   bank.conflictStallCycles.count());
        json.field("utilization", bank.utilization);
        json.endObject();
    }
    json.endArray();

    if (stats.trace.enabled) {
        json.beginObject("trace");
        json.field("recorded", stats.trace.recorded);
        json.field("dropped", stats.trace.dropped);
        json.beginObject("kinds");
        for (std::size_t k = 0; k < stats.trace.kindCounts.size(); ++k) {
            json.field(obs::traceEventName(
                           static_cast<obs::TraceEventKind>(k)),
                       stats.trace.kindCounts[k]);
        }
        json.endObject();
        json.endObject();
    }
    json.endObject();
}

void
writeRun(JsonWriter &json, const RunResult &result)
{
    json.field("workload", result.workload);
    json.field("design", result.design);
    json.field("isMix", result.isMix);
    writeStats(json, result.stats);
    if (!result.ipcAlone.empty()) {
        json.beginArray("ipcAlone");
        for (double ipc : result.ipcAlone)
            json.value(ipc);
        json.endArray();
    }
}

} // namespace

std::string
runResultToJson(const RunResult &result)
{
    JsonWriter json;
    json.beginObject();
    writeRun(json, result);
    json.endObject();
    return json.str();
}

std::string
comparisonToJson(const std::string &experiment,
                 const Comparison &comparison)
{
    JsonWriter json;
    json.beginObject();
    json.field("experiment", experiment);
    json.beginArray("designs");
    for (const auto &d : comparison.designs)
        json.value(d);
    json.endArray();
    json.beginArray("rows");
    for (const auto &row : comparison.rows) {
        json.beginObject();
        json.field("workload", row.workload);
        json.field("isMix", row.isMix);
        // Failure fields appear only on failed cells, so a complete
        // run's report stays byte-identical to pre-resilience output
        // (and to a resumed run's — the acceptance check of §11).
        if (row.baselineOk) {
            json.beginObject("baseline");
            writeRun(json, row.baseline);
            json.endObject();
        } else {
            json.field("baselineError", row.baselineError);
        }
        json.beginArray("runs");
        for (std::size_t d = 0; d < row.runs.size(); ++d) {
            json.beginObject();
            if (d < row.errors.size() && !row.errors[d].empty())
                json.field("error", row.errors[d]);
            else
                writeRun(json, row.runs[d]);
            json.endObject();
        }
        json.endArray();
        json.beginArray("speedups");
        for (double s : row.speedups)
            json.value(s); // NaN (failed cell) serialises as null
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.beginObject("geomeans");
    for (std::size_t d = 0; d < comparison.designs.size(); ++d) {
        json.beginObject(comparison.designs[d]);
        json.field("rate", comparison.rateGeomean(d));
        json.field("mix", comparison.mixGeomean(d));
        json.field("all", comparison.allGeomean(d));
        json.endObject();
    }
    json.endObject();
    if (!comparison.failures.empty()) {
        json.beginArray("failures");
        for (const RunError &err : comparison.failures) {
            json.beginObject();
            json.field("workload", err.workload);
            json.field("design", err.design);
            json.field("kind", runErrorKindName(err.kind));
            json.field("phase", jobPhaseName(err.phase));
            json.field("what", err.what);
            json.endObject();
        }
        json.endArray();
    }
    json.endObject();
    return json.str();
}

bool
maybeWriteJsonReport(const std::string &json)
{
    const char *path = std::getenv("BEAR_JSON");
    if (!path)
        return false;
    std::FILE *f = std::fopen(path, "a");
    if (!f)
        return false;
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    return true;
}

} // namespace bear
