/**
 * @file
 * Ablation: EndstopCount sensitivity. Section 5 reports the algorithm
 * is insensitive to this parameter between 2 and 25 but that an
 * infinite value (never forcing an attack off an extreme) degrades the
 * algorithm's effectiveness.
 */

#include <cstdio>
#include <vector>

#include "figures.hh"
#include "sweep_util.hh"

using namespace mcd;
using namespace mcd::bench;

void
bench::ablationEndstop()
{
    std::printf("=== Ablation: EndstopCount sensitivity "
                "(paper: insensitive from 2-25, infinite degrades) "
                "===\n");
    RunnerConfig config = standardConfig();
    printMethodology(config);

    auto names = sweepBenchmarks();
    auto baselines = computeBaselines(config, names);

    TextTable table("EndstopCount sweep, metrics vs baseline MCD");
    table.setHeader({"endstop count", "perf degradation",
                     "energy savings", "EDP improvement"});

    std::vector<int> values = {1, 2, 5, 10, 25, 0 /* infinite */};
    for (int count : values) {
        AttackDecayConfig adc = scaledAttackDecay();
        adc.endstopCount = count;
        std::fprintf(stderr, "  endstop = %d\n", count);

        auto stats = runVariant(config, names, attackDecaySpec(adc));
        std::vector<ComparisonMetrics> vs_mcd;
        for (std::size_t i = 0; i < names.size(); ++i)
            vs_mcd.push_back(compare(baselines.mcd.at(names[i]),
                                     stats[i]));
        table.addRow({count == 0 ? "infinite" : std::to_string(count),
                      pct(meanOf(vs_mcd,
                                 &ComparisonMetrics::perfDegradation)),
                      pct(meanOf(vs_mcd,
                                 &ComparisonMetrics::energySavings)),
                      pct(meanOf(vs_mcd,
                                 &ComparisonMetrics::edpImprovement))});
    }
    std::printf("%s", table.render().c_str());
}
