/**
 * @file
 * Controller bake-off example: runs a handful of benchmarks under the
 * fully synchronous machine, the baseline MCD machine, Attack/Decay,
 * the off-line Dynamic-1%, and matched global scaling, and prints one
 * comparison table per benchmark — a miniature Table 6.
 *
 * Usage: controller_compare [bench1,bench2,...]
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/table.hh"

int
main(int argc, char **argv)
{
    std::vector<std::string> benches = {"epic", "mcf", "swim"};
    if (argc > 1) {
        benches.clear();
        std::stringstream ss(argv[1]);
        std::string item;
        while (std::getline(ss, item, ','))
            if (!item.empty())
                benches.push_back(item);
    }

    mcd::RunnerConfig config;
    config.instructions = 150000;
    config.warmup = 30000;
    config.applyEnvOverrides();
    mcd::Runner runner(config);

    for (const auto &bench : benches) {
        std::fprintf(stderr, "running %s ...\n", bench.c_str());
        std::vector<mcd::IntervalProfile> profile;
        mcd::SimStats mcd_base = runner.runMcdBaseline(bench, &profile);
        mcd::ExperimentSpec spec;
        spec.benchmark = bench;
        spec.config = config;
        spec.mode = mcd::ClockMode::Synchronous;
        mcd::SimStats sync = runner.cache().getOrRun(spec);
        spec.mode = mcd::ClockMode::Mcd;
        spec.controller = mcd::attackDecaySpec(mcd::AttackDecayConfig{});
        mcd::SimStats ad = runner.cache().getOrRun(spec);
        mcd::OfflineResult dyn1 =
            runner.runOfflineDynamic(bench, 0.01, mcd_base, profile);
        mcd::ComparisonMetrics m_ad = mcd::compare(mcd_base, ad);
        mcd::GlobalResult global =
            runner.runGlobalAtDegradation(bench, m_ad.perfDegradation);

        mcd::TextTable table(bench + " — relative to baseline MCD");
        table.setHeader({"variant", "perf deg", "energy savings",
                         "EDP improvement"});
        auto add = [&table, &mcd_base](const std::string &name,
                                       const mcd::SimStats &stats) {
            mcd::ComparisonMetrics m = mcd::compare(mcd_base, stats);
            table.addRow({name, mcd::pct(m.perfDegradation),
                          mcd::pct(m.energySavings),
                          mcd::pct(m.edpImprovement)});
        };
        add("fully synchronous @1GHz", sync);
        add("Attack/Decay", ad);
        add("Dynamic-1% (off-line)", dyn1.stats);
        add("Global @" + mcd::ghz(global.freq), global.stats);
        std::printf("%s\n", table.render().c_str());
    }
    return 0;
}
