/**
 * @file
 * Extension study (paper Section 9.4): composing BEAR's spatial
 * Neighboring Tag Cache with a *temporal* Tag Cache of recently
 * accessed sets.  The paper notes the two exploit orthogonal locality
 * and "can be adopted simultaneously" — this harness measures the
 * combination.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "dramcache/alloy_cache.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace bear;

namespace
{

struct Variant
{
    const char *name;
    bool ntc;
    bool ttc;
};

SystemStats
run(const char *workload, const Variant &variant,
    const RunnerOptions &options)
{
    SystemConfig config;
    config.scale = options.scale;
    AlloyConfig alloy;
    alloy.fillPolicy = FillPolicy::BandwidthAware;
    alloy.useDcp = true;
    alloy.useNtc = variant.ntc;
    alloy.useTtc = variant.ttc;
    config.alloyOverride = alloy;

    std::vector<std::unique_ptr<RefStream>> streams;
    for (std::uint32_t c = 0; c < config.cores; ++c) {
        streams.push_back(std::make_unique<WorkloadStream>(
            profileByName(workload), options.seed + 0x1000 * (c + 1),
            options.scale));
    }
    System sys(config, std::move(streams));
    sys.run(options.warmupRefsPerCore);
    sys.resetStats();
    sys.run(options.measureRefsPerCore);
    return sys.stats();
}

} // namespace

int
main()
{
    RunnerOptions options = bench::ablationOptionsFromEnv();
    printExperimentHeader(
        "Extension: Temporal Tag Cache",
        "BAB+DCP combined with spatial (NTC) and temporal (TTC) tag "
        "caches",
        "Section 9.4: temporal and spatial tag caching are orthogonal "
        "and can be adopted simultaneously",
        options);

    const Variant variants[] = {
        {"none", false, false},
        {"NTC (= BEAR)", true, false},
        {"TTC", false, true},
        {"NTC+TTC", true, true},
    };
    const char *names[] = {"mcf", "lbm", "soplex", "omnetpp", "gcc",
                           "GemsFDTD", "xalancbmk"};

    Table table({"workload", "none", "NTC", "TTC", "NTC+TTC",
                 "missProbe bloat (none->NTC+TTC)"});
    const std::size_t mp =
        static_cast<std::size_t>(BloatCategory::MissProbe);
    for (const char *name : names) {
        std::vector<SystemStats> stats;
        for (const auto &variant : variants)
            stats.push_back(run(name, variant, options));
        const double base =
            static_cast<double>(stats[0].execCycles);
        table.addRow(
            {name, "1.000",
             Table::num(base / static_cast<double>(stats[1].execCycles),
                        3),
             Table::num(base / static_cast<double>(stats[2].execCycles),
                        3),
             Table::num(base / static_cast<double>(stats[3].execCycles),
                        3),
             Table::num(stats[0].bloatBreakdown[mp], 2) + " -> "
                 + Table::num(stats[3].bloatBreakdown[mp], 2)});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
