#include "sim/metrics.hh"

#include "common/log.hh"

namespace bear
{

double
rateSpeedup(const RunResult &baseline, const RunResult &config)
{
    bear_assert(config.stats.execCycles > 0, "config run has no cycles");
    return static_cast<double>(baseline.stats.execCycles)
        / static_cast<double>(config.stats.execCycles);
}

double
weightedSpeedup(const RunResult &run)
{
    bear_assert(run.ipcAlone.size() == run.stats.ipcPerCore.size(),
                "weighted speedup needs IPC_alone per core");
    double ws = 0.0;
    for (std::size_t i = 0; i < run.ipcAlone.size(); ++i) {
        bear_assert(run.ipcAlone[i] > 0.0, "IPC_alone must be positive");
        ws += run.stats.ipcPerCore[i] / run.ipcAlone[i];
    }
    return ws;
}

double
normalizedSpeedup(const RunResult &baseline, const RunResult &config)
{
    bear_assert(baseline.workload == config.workload,
                "speedup requires the same workload (", baseline.workload,
                " vs ", config.workload, ")");
    if (config.isMix)
        return weightedSpeedup(config) / weightedSpeedup(baseline);
    return rateSpeedup(baseline, config);
}

} // namespace bear
