/**
 * @file
 * Ablation: the inherent cost of the MCD microarchitecture itself
 * (Section 2: less than 2 % performance degradation with the improved
 * clocking scheme; Section 4: +2.9 % total energy from the multiple-PLL
 * clock subsystem). Sweeps the synchronization window and toggles
 * jitter, comparing the baseline MCD machine against the fully
 * synchronous machine at the same 1 GHz.
 */

#include <cstdio>
#include <vector>

#include "figures.hh"
#include "sweep_util.hh"
#include "harness/metrics.hh"

using namespace mcd;
using namespace mcd::bench;

void
bench::ablationMcdOverhead()
{
    std::printf("=== Ablation: inherent MCD overheads vs the fully "
                "synchronous processor ===\n");
    RunnerConfig base_config = standardConfig();
    printMethodology(base_config);

    auto names = sweepBenchmarks();

    struct Case
    {
        const char *name;
        double windowFraction;
        bool jitter;
    };
    std::vector<Case> cases = {
        {"window 300 ps, jitter on (paper)", 0.30, true},
        {"window 300 ps, jitter off", 0.30, false},
        {"window 150 ps, jitter on", 0.15, true},
        {"window 600 ps, jitter on", 0.60, true},
        {"window 0 (free sync), jitter on", 0.0, true},
    };

    TextTable table("baseline MCD vs synchronous, averaged over apps");
    table.setHeader({"configuration", "perf degradation",
                     "energy increase (EPI)"});
    for (const auto &c : cases) {
        std::fprintf(stderr, "  case: %s\n", c.name);
        RunnerConfig config = base_config;
        config.dvfs.syncWindowFraction = c.windowFraction;
        config.jitter = c.jitter;
        Runner runner(config);

        auto sync_stats = runVariant(runner, names, ControllerSpec{},
                                     ClockMode::Synchronous,
                                     config.dvfs.freqMax);
        ControllerSpec profiling;
        profiling.name = "profiling";
        auto mcd_stats = runVariant(runner, names, profiling);
        std::vector<ComparisonMetrics> vs_sync;
        for (std::size_t i = 0; i < names.size(); ++i)
            vs_sync.push_back(compare(sync_stats[i], mcd_stats[i]));
        table.addRow({c.name,
                      pct(meanOf(vs_sync,
                                 &ComparisonMetrics::perfDegradation)),
                      pct(-meanOf(vs_sync,
                                  &ComparisonMetrics::epiReduction))});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\npaper: <2%% inherent degradation (1.3%% average) and "
                "+2.9%% total energy from the MCD clock subsystem.\n");
}
