/**
 * @file
 * Ablation: control-interval length. The paper chose 10,000
 * instructions (about 10x the control-loop delay); our scaled runs
 * default to 1,000 so the number of control epochs matches the paper's
 * (DESIGN.md, substitution 4). This bench sweeps the interval to show
 * the algorithm's behavior is stable across epoch sizes once there are
 * enough epochs, and that epochs shorter than the loop delay hurt.
 */

#include <cstdio>
#include <vector>

#include "figures.hh"
#include "sweep_util.hh"

using namespace mcd;
using namespace mcd::bench;

void
bench::ablationInterval()
{
    std::printf("=== Ablation: control interval length ===\n");
    RunnerConfig base_config = standardConfig();
    printMethodology(base_config);

    auto names = sweepBenchmarks();

    TextTable table("interval sweep, Attack/Decay vs baseline MCD "
                    "(same interval in both)");
    table.setHeader({"interval (insts)", "epochs/run",
                     "perf degradation", "energy savings",
                     "EDP improvement"});

    for (int interval : {100, 250, 500, 1000, 2500, 10000}) {
        std::fprintf(stderr, "  interval = %d\n", interval);
        RunnerConfig config = base_config;
        config.intervalInstructions = interval;

        // Baseline and A/D run of one benchmark share the derived
        // seed (same index in both batches), keeping them comparable.
        ControllerSpec profiling;
        profiling.name = "profiling";
        auto mcd_base = runVariant(config, names, profiling);
        auto ad_stats = runVariant(config, names,
                                   attackDecaySpec(scaledAttackDecay()));
        std::vector<ComparisonMetrics> vs_mcd;
        for (std::size_t i = 0; i < names.size(); ++i)
            vs_mcd.push_back(compare(mcd_base[i], ad_stats[i]));
        table.addRow({std::to_string(interval),
                      std::to_string(config.instructions /
                                     static_cast<std::uint64_t>(
                                         interval)),
                      pct(meanOf(vs_mcd,
                                 &ComparisonMetrics::perfDegradation)),
                      pct(meanOf(vs_mcd,
                                 &ComparisonMetrics::energySavings)),
                      pct(meanOf(vs_mcd,
                                 &ComparisonMetrics::edpImprovement))});
    }
    std::printf("%s", table.render().c_str());
}
