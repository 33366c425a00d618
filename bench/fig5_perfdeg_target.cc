/**
 * @file
 * Regenerates Figure 5 of the paper: (a) achieved performance
 * degradation versus the performance-degradation target
 * (PerfDegThreshold sweep, configuration 1.000_06.0_1.250_X.X), with
 * the ideal y = x line for reference, and (b) energy-delay-product
 * improvement versus the target. Degradations are measured against the
 * fully synchronous processor, i.e. they include the inherent MCD
 * offset, exactly as the paper's Figure 5(a) caption states.
 */

#include <cstdio>
#include <vector>

#include "figures.hh"
#include "sweep_util.hh"

using namespace mcd;
using namespace mcd::bench;

void
bench::fig5()
{
    std::printf("=== Figure 5: performance degradation target analysis "
                "(config 1.000_06.0_1.250_X.X) ===\n");
    RunnerConfig config = standardConfig();
    printMethodology(config);

    auto names = sweepBenchmarks();
    auto baselines = computeBaselines(config, names);

    std::vector<double> targets = {0.00, 0.02, 0.04, 0.06,
                                   0.08, 0.10, 0.12};
    std::vector<SweepPoint> points;
    for (double target : targets) {
        AttackDecayConfig adc;
        adc.deviationThreshold = 0.01;  // 1.000
        adc.reactionChange = 0.06;      // 06.0
        adc.decay = 0.0125;             // 1.250
        adc.perfDegThreshold = target;  // X.X
        std::fprintf(stderr, "  sweep target %.0f%%\n", target * 100);
        points.push_back(
            runSweepPoint(config, names, baselines, adc, target));
    }

    TextTable table("Figure 5(a)/(b): achieved degradation and EDP "
                    "improvement vs target");
    table.setHeader({"target", "achieved deg (vs sync)", "ideal",
                     "EDP improvement (vs sync)"});
    for (const auto &p : points) {
        table.addRow({pct(p.parameter, 0),
                      pct(p.perfDegradationVsSync),
                      pct(p.parameter, 0),
                      pct(p.edpImprovementVsSync)});
    }
    std::printf("%s\ncsv:\n%s", table.render().c_str(),
                table.csv().c_str());
    std::printf("\npaper shape: achieved tracks the ideal line over the "
                "4-10%% range;\nEDP improvement flattens then declines "
                "past a ~9%% target.\n");
}
