/**
 * @file
 * Ablation: writeback-miss allocation policy of the baseline Alloy
 * Cache.
 *
 * The paper's baseline sends writeback misses to the next level
 * (no-allocate, Section 3.1), so its Figure 4 shows no Writeback Fill
 * component.  This harness quantifies what allocate would have cost:
 * Writeback Fill traffic appears and the Bloat Factor grows.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace bear;

int
main()
{
    RunnerOptions options = bench::ablationOptionsFromEnv();
    printExperimentHeader(
        "Ablation: writeback allocation",
        "Alloy baseline with writeback-miss no-allocate vs allocate",
        "the paper's baseline is no-allocate; allocate adds Writeback "
        "Fill bloat (Section 2.3, footnote 4)",
        options);

    const char *names[] = {"lbm", "soplex", "omnetpp", "gcc", "zeusmp",
                           "bzip2"};
    Table table({"workload", "bloat(noalloc)", "bloat(alloc)",
                 "wbfill(alloc)", "speedup(alloc)"});
    for (const char *name : names) {
        auto run = [&](bool allocate) {
            SystemConfig config;
            config.scale = options.scale;
            if (allocate) {
                AlloyConfig alloy;
                alloy.writebackAllocate = true;
                config.alloyOverride = alloy;
            }
            std::vector<std::unique_ptr<RefStream>> streams;
            for (std::uint32_t c = 0; c < config.cores; ++c) {
                streams.push_back(std::make_unique<WorkloadStream>(
                    profileByName(name), options.seed + 0x1000 * (c + 1),
                    options.scale));
            }
            System sys(config, std::move(streams));
            sys.run(options.warmupRefsPerCore);
            sys.resetStats();
            sys.run(options.measureRefsPerCore);
            return sys.stats();
        };
        const SystemStats base = run(false);
        const SystemStats alloc = run(true);
        const std::size_t wbfill =
            static_cast<std::size_t>(BloatCategory::WritebackFill);
        table.addRow(
            {name, Table::num(base.bloatFactor, 2),
             Table::num(alloc.bloatFactor, 2),
             Table::num(alloc.bloatBreakdown[wbfill], 2),
             Table::num(static_cast<double>(base.execCycles)
                            / static_cast<double>(alloc.execCycles),
                        3)});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
