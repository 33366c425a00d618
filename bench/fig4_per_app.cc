/**
 * @file
 * Regenerates Figure 4 of the paper: per-application (a) performance
 * degradation, (b) energy savings, and (c) energy-delay-product
 * improvement for the baseline MCD processor, Dynamic-1%, Dynamic-5%,
 * and Attack/Decay — all relative to the fully synchronous processor.
 * Each sub-figure is printed as one CSV-style series block plus an
 * aligned table, ending with the cross-application average (the
 * rightmost point of each paper plot).
 */

#include <cstdio>
#include <vector>

#include "figures.hh"
#include "bench_util.hh"
#include "harness/metrics.hh"

using namespace mcd;
using namespace mcd::bench;

namespace
{

void
printSeries(const char *title,
            const std::vector<BenchResults> &all,
            double ComparisonMetrics::*field)
{
    TextTable table(title);
    table.setHeader({"benchmark", "Baseline MCD", "Dynamic-1%",
                     "Dynamic-5%", "Attack/Decay"});

    std::vector<ComparisonMetrics> base_all, d1_all, d5_all, ad_all;
    for (const auto &r : all) {
        ComparisonMetrics base = compare(r.sync, r.mcdBase);
        ComparisonMetrics d1 = compare(r.sync, r.dynamic1.stats);
        ComparisonMetrics d5 = compare(r.sync, r.dynamic5.stats);
        ComparisonMetrics ad = compare(r.sync, r.attackDecay);
        base_all.push_back(base);
        d1_all.push_back(d1);
        d5_all.push_back(d5);
        ad_all.push_back(ad);
        table.addRow({r.name, pct(base.*field), pct(d1.*field),
                      pct(d5.*field), pct(ad.*field)});
    }
    table.addRow({"average",
                  pct(meanOf(base_all, field)),
                  pct(meanOf(d1_all, field)),
                  pct(meanOf(d5_all, field)),
                  pct(meanOf(ad_all, field))});
    std::printf("%s\n", table.render().c_str());
    std::printf("csv:\n%s\n", table.csv().c_str());
}

} // namespace

void
bench::fig4()
{
    std::printf("=== Figure 4: per-application results relative to a "
                "fully synchronous processor ===\n");
    RunnerConfig config = standardConfig();
    printMethodology(config);

    auto names = selectedBenchmarks();
    ComputeOptions options;
    options.globals = false; // Figure 4 has no Global(...) series
    auto all = computeAll(config, names, options);

    printSeries("Figure 4(a): Performance Degradation", all,
                &ComparisonMetrics::perfDegradation);
    printSeries("Figure 4(b): Energy Savings", all,
                &ComparisonMetrics::energySavings);
    printSeries("Figure 4(c): Energy-Delay Product Improvement", all,
                &ComparisonMetrics::edpImprovement);
}
