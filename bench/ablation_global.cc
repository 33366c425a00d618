/**
 * @file
 * Ablation: the two readings of "global frequency/voltage scaling to
 * achieve the performance degradation of the respective algorithms"
 * (Table 6's Global rows):
 *  - frequency-matched (used in our Table 6): the synchronous chip is
 *    slowed by the target factor, f = f_max / (1 + deg);
 *  - time-matched: a search finds the frequency whose measured run time
 *    equals the target, which lets memory-bound applications cut
 *    frequency far deeper.
 * The paper's ratio-of-2 analysis corresponds to the first reading;
 * the second is shown for completeness.
 */

#include <cstdio>
#include <vector>

#include "figures.hh"
#include "sweep_util.hh"
#include "harness/metrics.hh"
#include "harness/parallel_sweep.hh"

using namespace mcd;
using namespace mcd::bench;

void
bench::ablationGlobal()
{
    std::printf("=== Ablation: global-DVFS matching interpretation "
                "===\n");
    RunnerConfig config = standardConfig();
    printMethodology(config);
    Runner runner(config);

    auto names = sweepBenchmarks();
    const double target_deg = 0.032; // the paper's A/D degradation

    TextTable table("global scaling at a 3.2% degradation target, "
                    "vs fully synchronous");
    table.setHeader({"benchmark", "freq-matched f", "deg", "savings",
                     "time-matched f", "deg", "savings"});

    struct Row
    {
        SimStats sync;
        GlobalResult fm;
        GlobalResult tm;
    };
    ParallelSweep sweep(config.jobs);
    std::fprintf(stderr, "  running %zu benchmarks on %d workers\n",
                 names.size(), sweep.workers());

    // The synchronous reference and the frequency-matched point are
    // plain declarative runs (the matched frequency is a closed-form
    // function of the target); only the time-matched search needs the
    // adaptive Runner driver.
    auto sync_stats = runVariant(runner, names, ControllerSpec{},
                                 ClockMode::Synchronous,
                                 config.dvfs.freqMax);
    const Hertz fm_freq = runner.globalMatchedFrequency(target_deg);
    auto fm_stats = runVariant(runner, names, ControllerSpec{},
                               ClockMode::Synchronous, fm_freq);
    auto rows = sweep.map<Row>(names.size(), [&](std::size_t i) {
        Runner local(benchmarkConfig(config, i));
        Row row;
        row.sync = sync_stats[i];
        row.fm = GlobalResult{fm_stats[i], fm_freq};
        Tick target_time = static_cast<Tick>(
            static_cast<double>(row.sync.time) * (1.0 + target_deg));
        row.tm = local.runGlobalMatching(names[i], target_time);
        return row;
    });

    std::vector<ComparisonMetrics> fm_all, tm_all;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Row &row = rows[i];
        ComparisonMetrics m_fm = compare(row.sync, row.fm.stats);
        ComparisonMetrics m_tm = compare(row.sync, row.tm.stats);
        fm_all.push_back(m_fm);
        tm_all.push_back(m_tm);
        table.addRow({names[i], ghz(row.fm.freq),
                      pct(m_fm.perfDegradation),
                      pct(m_fm.energySavings), ghz(row.tm.freq),
                      pct(m_tm.perfDegradation),
                      pct(m_tm.energySavings)});
    }
    table.addRow({"average", "",
                  pct(meanOf(fm_all,
                             &ComparisonMetrics::perfDegradation)),
                  pct(meanOf(fm_all, &ComparisonMetrics::energySavings)),
                  "",
                  pct(meanOf(tm_all,
                             &ComparisonMetrics::perfDegradation)),
                  pct(meanOf(tm_all,
                             &ComparisonMetrics::energySavings))});
    std::printf("%s", table.render().c_str());
    std::printf("\nfreq-matched power/perf ratio: %.2f (paper: ~2)\n",
                powerPerfRatio(fm_all));
    std::printf("time-matched power/perf ratio: %.2f (higher for "
                "memory-bound apps)\n", powerPerfRatio(tm_all));
}
