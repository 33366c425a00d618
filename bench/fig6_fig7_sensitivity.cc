/**
 * @file
 * Regenerates Figures 6 and 7 of the paper: sensitivity of the
 * energy-delay-product improvement (Figure 6) and of the power-savings
 * to performance-degradation ratio (Figure 7), both relative to the
 * baseline MCD processor, to the three Attack/Decay parameters:
 *   (a) DecayPercent            (config 1.500_04.0_X.XXX_3.0)
 *   (b) ReactionChangePercent   (config 1.500_XX.X_0.750_3.0)
 *   (c) DeviationThresholdPercent (config X.XXX_06.0_0.175_2.5)
 * Both figures sweep the same configurations, so one figure's runs
 * serve the other's from the artifact cache.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "figures.hh"
#include "sweep_util.hh"

using namespace mcd;
using namespace mcd::bench;

namespace
{

/** One parameter sweep: its title suffix, values and configuration. */
struct Sensitivity
{
    const char *title;
    std::vector<double> values;
    AttackDecayConfig (*make)(double);
};

const std::vector<Sensitivity> &
sensitivities()
{
    static const std::vector<Sensitivity> sweeps = {
        {"(a): DecayPercent sensitivity (1.500_04.0_X.XXX_3.0)",
         {0.0005, 0.00175, 0.005, 0.0075, 0.010, 0.015, 0.020},
         [](double v) {
             AttackDecayConfig adc;
             adc.deviationThreshold = 0.015;
             adc.reactionChange = 0.04;
             adc.decay = v;
             adc.perfDegThreshold = 0.03;
             return adc;
         }},
        {"(b): ReactionChange sensitivity (1.500_XX.X_0.750_3.0)",
         {0.005, 0.02, 0.04, 0.06, 0.09, 0.12, 0.155},
         [](double v) {
             AttackDecayConfig adc;
             adc.deviationThreshold = 0.015;
             adc.reactionChange = v;
             adc.decay = 0.0075;
             adc.perfDegThreshold = 0.03;
             return adc;
         }},
        {"(c): DeviationThreshold sensitivity (X.XXX_06.0_0.175_2.5)",
         {0.0, 0.005, 0.0075, 0.0125, 0.0175, 0.025},
         [](double v) {
             AttackDecayConfig adc;
             adc.deviationThreshold = v;
             adc.reactionChange = 0.06;
             adc.decay = 0.00175;
             adc.perfDegThreshold = 0.025;
             return adc;
         }},
    };
    return sweeps;
}

/**
 * Print one sensitivity figure: a table per parameter sweep, each row
 * the parameter value and `row(value, point)`'s metric cells.
 */
void
printSensitivity(const char *banner, const char *figure,
                 const std::vector<std::string> &header,
                 std::vector<std::string> (*row)(double,
                                                 const SweepPoint &),
                 const char *shape)
{
    std::printf("%s", banner);
    RunnerConfig config = standardConfig();
    printMethodology(config);
    Runner runner(config);

    auto names = sweepBenchmarks();
    auto baselines = computeBaselines(runner, names);

    for (const Sensitivity &s : sensitivities()) {
        std::string title = std::string(figure) + s.title;
        TextTable table(title);
        table.setHeader(header);
        for (double v : s.values) {
            std::fprintf(stderr, "  sweep %s = %.3f%%\n", title.c_str(),
                         v * 100);
            table.addRow(row(v, runSweepPoint(runner, names, baselines,
                                              s.make(v), v)));
        }
        std::printf("%s\ncsv:\n%s\n", table.render().c_str(),
                    table.csv().c_str());
    }
    std::printf("%s", shape);
}

} // namespace

void
bench::fig6()
{
    printSensitivity(
        "=== Figure 6: Attack/Decay sensitivity analysis, "
        "energy-delay product improvements ===\n",
        "Figure 6",
        {"parameter", "EDP improvement (vs MCD)",
         "energy savings (vs MCD)"},
        [](double v, const SweepPoint &p) {
            return std::vector<std::string>{
                pct(v, 3), pct(p.edpImprovementVsMcd),
                pct(p.energySavingsVsMcd)};
        },
        "paper shape: each curve peaks in a broad flat middle range "
        "and falls off at the extremes.\n");
}

void
bench::fig7()
{
    printSensitivity(
        "=== Figure 7: Attack/Decay sensitivity analysis, "
        "power/performance ratio ===\n",
        "Figure 7", {"parameter", "power/perf ratio (vs MCD)"},
        [](double v, const SweepPoint &p) {
            return std::vector<std::string>{pct(v, 3),
                                            num(p.powerPerfRatio, 2)};
        },
        "paper shape: the ratio stays in the 3.5-4.6 band over a broad "
        "middle range of each parameter.\n");
}
