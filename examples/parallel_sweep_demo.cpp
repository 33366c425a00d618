/**
 * @file
 * ParallelSweep walkthrough: a small Figure 4-style sweep that fans
 * one job per benchmark across the worker threads and compares
 * Attack/Decay against the fully synchronous machine.
 *
 * Job i runs both variants — the synchronous reference and the
 * Attack/Decay run — on a Runner seeded with deriveJobSeed(seed, i),
 * so both consume the same derived clock stream and their comparison
 * is apples-to-apples.
 * Results (and the printed table) are bit-identical for any worker
 * count; rerun with MCD_JOBS=1 to check.
 *
 * Usage: example_parallel_sweep_demo            # all workers
 *        MCD_JOBS=2 example_parallel_sweep_demo # forced worker count
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "harness/parallel_sweep.hh"
#include "harness/table.hh"

int
main()
{
    const std::vector<std::string> benches = {"adpcm", "epic", "gsm",
                                              "mcf", "swim"};

    mcd::RunnerConfig config;
    config.instructions = 100000;
    config.warmup = 20000;
    config.applyEnvOverrides();

    struct Variants
    {
        mcd::SimStats sync;
        mcd::SimStats ad;
    };
    mcd::ParallelSweep sweep; // MCD_JOBS env or all hardware threads
    std::printf("running %zu benchmarks on %d workers\n\n",
                benches.size(), sweep.workers());
    auto results = sweep.map<Variants>(benches.size(), [&](std::size_t i) {
        mcd::RunnerConfig job = config;
        job.clockSeed = mcd::deriveJobSeed(config.clockSeed, i);
        mcd::Runner runner(job);
        return Variants{
            runner.runSynchronous(benches[i], job.dvfs.freqMax),
            runner.runAttackDecay(benches[i], mcd::AttackDecayConfig{})};
    });

    // Aggregate in job order through the metrics layer.
    mcd::TextTable table(
        "Attack/Decay vs fully synchronous (mini Figure 4)");
    table.setHeader({"benchmark", "perf degradation", "energy savings",
                     "EDP improvement"});
    std::vector<mcd::ComparisonMetrics> all;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        mcd::ComparisonMetrics m =
            mcd::compare(results[i].sync, results[i].ad);
        all.push_back(m);
        table.addRow({benches[i], mcd::pct(m.perfDegradation),
                      mcd::pct(m.energySavings),
                      mcd::pct(m.edpImprovement)});
    }
    table.addRow({"average",
                  mcd::pct(mcd::meanOf(
                      all, &mcd::ComparisonMetrics::perfDegradation)),
                  mcd::pct(mcd::meanOf(
                      all, &mcd::ComparisonMetrics::energySavings)),
                  mcd::pct(mcd::meanOf(
                      all, &mcd::ComparisonMetrics::edpImprovement))});
    std::printf("%s", table.render().c_str());
    return 0;
}
