#include "sweep_util.hh"

#include <cstdio>
#include <cstdlib>

#include "harness/parallel_sweep.hh"

namespace mcd::bench
{

std::vector<std::string>
sweepBenchmarks()
{
    if (std::getenv("MCD_BENCHMARKS"))
        return selectedBenchmarks();
    // A representative mix: media, pointer-chasing, memory-bound,
    // compute-bound integer and floating point.
    return {"adpcm", "epic", "jpeg", "bh", "em3d", "health",
            "power", "art", "bzip2", "gcc", "mcf", "swim"};
}

std::vector<SimStats>
runVariant(const RunnerConfig &config,
           const std::vector<std::string> &names,
           const ControllerSpec &controller, ClockMode mode,
           Hertz startFreq)
{
    std::vector<ExperimentSpec> specs;
    specs.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        specs.push_back(makeSpec(benchmarkConfig(config, i), names[i],
                                 controller, mode, startFreq));
    return runExperiments(specs, config.jobs);
}

SweepBaselines
computeBaselines(const RunnerConfig &config,
                 const std::vector<std::string> &names)
{
    // Both baseline batches derive benchmark i's seed from i
    // (benchmarkConfig), exactly like the variant batches of every
    // sweep point, so each comparison consumes one clock stream end to
    // end. The cache makes re-requesting these baselines — by a later
    // sweep, or by another figure's worth of experiments in the same
    // process — free.
    std::fprintf(stderr, "  running %zu baselines on %d workers ...",
                 2 * names.size(),
                 ParallelSweep(config.jobs).workers());
    std::fflush(stderr);
    ControllerSpec profiling;
    profiling.name = "profiling";
    auto mcd = runVariant(config, names, profiling);
    auto sync = runVariant(config, names, ControllerSpec{},
                           ClockMode::Synchronous);
    std::fprintf(stderr, " done\n");

    SweepBaselines baselines;
    for (std::size_t i = 0; i < names.size(); ++i) {
        baselines.mcd[names[i]] = mcd[i];
        baselines.sync[names[i]] = sync[i];
    }
    return baselines;
}

SweepPoint
runSweepPoint(const RunnerConfig &config,
              const std::vector<std::string> &names,
              const SweepBaselines &baselines,
              const AttackDecayConfig &adc, double parameter)
{
    auto results = runVariant(config, names, attackDecaySpec(adc));

    // Aggregate strictly in benchmark order on the collected batch, so
    // the floating-point sums never depend on completion order.
    std::vector<ComparisonMetrics> vs_mcd;
    std::vector<ComparisonMetrics> vs_sync;
    for (std::size_t i = 0; i < names.size(); ++i) {
        vs_mcd.push_back(compare(baselines.mcd.at(names[i]),
                                 results[i]));
        vs_sync.push_back(compare(baselines.sync.at(names[i]),
                                  results[i]));
    }

    SweepPoint point;
    point.parameter = parameter;
    point.edpImprovementVsMcd =
        meanOf(vs_mcd, &ComparisonMetrics::edpImprovement);
    point.powerPerfRatio = powerPerfRatio(vs_mcd);
    point.perfDegradationVsSync =
        meanOf(vs_sync, &ComparisonMetrics::perfDegradation);
    point.edpImprovementVsSync =
        meanOf(vs_sync, &ComparisonMetrics::edpImprovement);
    point.energySavingsVsMcd =
        meanOf(vs_mcd, &ComparisonMetrics::energySavings);
    return point;
}

} // namespace mcd::bench
