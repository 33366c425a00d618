#include "bench_util.hh"

#include <cstdio>

#include "common/env.hh"
#include "harness/parallel_sweep.hh"
#include "workload/benchmark_factory.hh"

namespace mcd::bench
{

RunnerConfig
standardConfig()
{
    RunnerConfig config;
    config.instructions = 250000;
    config.warmup = 50000;
    config.intervalInstructions = 1000;
    config.applyEnvOverrides();
    return config;
}

AttackDecayConfig
scaledAttackDecay()
{
    // Single definition in src/control (the stress-lab tournament's
    // default entries build from the same constants).
    return scaledAttackDecayConfig();
}

std::vector<std::string>
selectedBenchmarks()
{
    // Scenario-aware splitting: a synthetic: instance keeps its
    // comma-separated knobs, e.g.
    // MCD_BENCHMARKS="gsm,synthetic:mem=0.8,ilp=4,mcf".
    auto names = envScenarioList("MCD_BENCHMARKS");
    if (names.empty())
        return BenchmarkFactory::allNames();
    return names;
}

RunnerConfig
benchmarkConfig(const RunnerConfig &base, std::size_t index)
{
    RunnerConfig config = base;
    config.clockSeed = deriveJobSeed(config.clockSeed, index);
    return config;
}

ExperimentSpec
makeSpec(const RunnerConfig &config, const std::string &bench,
         const ControllerSpec &controller, ClockMode mode,
         Hertz startFreq)
{
    ExperimentSpec spec;
    spec.benchmark = bench;
    spec.mode = mode;
    spec.startFreq = startFreq;
    spec.controller = controller;
    spec.config = config;
    return spec;
}

BenchResults
computeOne(Runner &runner, const std::string &name,
           const ComputeOptions &options)
{
    BenchResults r;
    r.name = name;

    // Every product here is an artifact: the baseline MCD run doubles
    // as the off-line profiling pass (one simulation, two artifacts),
    // the synchronous and Attack/Decay runs are plain cacheable
    // specs, and the offline searches memoize whole results.
    std::vector<IntervalProfile> profile;
    r.mcdBase = runner.runMcdBaseline(name, &profile);

    r.sync = runner.cache().getOrRun(
        makeSpec(runner.config(), name, ControllerSpec{},
                 ClockMode::Synchronous, runner.config().dvfs.freqMax));
    r.attackDecay = runner.cache().getOrRun(
        makeSpec(runner.config(), name,
                 attackDecaySpec(scaledAttackDecay())));

    if (options.offline) {
        r.dynamic1 = runner.runOfflineDynamic(name, 0.01, r.mcdBase,
                                              profile);
        r.dynamic5 = runner.runOfflineDynamic(name, 0.05, r.mcdBase,
                                              profile);
    }

    if (options.globals) {
        // Frequency-matched interpretation: slow the whole synchronous
        // chip by the algorithm's degradation over the baseline MCD.
        auto match = [&](const SimStats &target) {
            double deg = (static_cast<double>(target.time) -
                          static_cast<double>(r.mcdBase.time)) /
                         static_cast<double>(r.mcdBase.time);
            return runner.runGlobalAtDegradation(name, deg);
        };
        r.globalAd = match(r.attackDecay);
        if (options.offline) {
            r.globalDyn1 = match(r.dynamic1.stats);
            r.globalDyn5 = match(r.dynamic5.stats);
        }
    }
    return r;
}

std::vector<BenchResults>
computeAll(const RunnerConfig &base,
           const std::vector<std::string> &names,
           const ComputeOptions &options)
{
    // One job per benchmark. Each job gets its own Runner whose clock
    // seed is derived from the job index, so every variant of one
    // benchmark (computed inside the job) stays comparable while
    // results are bit-identical for any worker count. The inner
    // offline searches fan out on the same shared pool, so threads
    // whose rows are done help the straggler row's search.
    ParallelSweep sweep(base.jobs);
    std::fprintf(stderr, "  running %zu benchmarks on %d workers\n",
                 names.size(), sweep.workers());
    return sweep.map<BenchResults>(names.size(), [&](std::size_t i) {
        Runner local(benchmarkConfig(base, i));
        BenchResults r = computeOne(local, names[i], options);
        std::fprintf(stderr, "  done %s\n", names[i].c_str());
        return r;
    });
}

void
printMethodology(const RunnerConfig &config)
{
    std::printf("methodology: %llu measured instructions per run, "
                "%llu warm-up, %d-instruction control interval\n"
                "(override with MCD_INSNS / MCD_WARMUP / MCD_INTERVAL; "
                "select apps with MCD_BENCHMARKS)\n\n",
                static_cast<unsigned long long>(config.instructions),
                static_cast<unsigned long long>(config.warmup),
                config.intervalInstructions);
}

void
reportStoreStats()
{
    // One renderer for every `store:` line in the repo (fleet workers
    // parse this exact format from worker stderr).
    std::fprintf(stderr, "%s\n",
                 storeStatsLine(ArtifactCache::instance()).c_str());
}

} // namespace mcd::bench
