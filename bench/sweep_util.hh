/**
 * @file
 * Shared machinery for the sensitivity-sweep benches (Figures 5, 6, 7)
 * and the ablations: seed-matched, spec-driven batches over a
 * representative benchmark subset. Each batch is a vector of
 * ExperimentSpecs — one controller spec applied to every benchmark,
 * with per-benchmark clock seeds derived from the benchmark's index —
 * executed on the ParallelSweep workers (MCD_JOBS) through the
 * process-wide ArtifactCache. Baselines and any sweep points that
 * coincide therefore simulate once per process (once ever, with a
 * MCD_STORE disk store), and aggregates are bit-identical for any
 * worker count.
 */

#ifndef MCD_BENCH_SWEEP_UTIL_HH
#define MCD_BENCH_SWEEP_UTIL_HH

#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "harness/metrics.hh"

namespace mcd::bench
{

/** Benchmarks used for parameter sweeps (override: MCD_BENCHMARKS). */
std::vector<std::string> sweepBenchmarks();

/**
 * Run one controller variant over every benchmark on seed-matched
 * per-benchmark machines (benchmark i runs on
 * benchmarkConfig(config, i), so batches over the same
 * `names` stay comparable across variants), fanned across the
 * ParallelSweep workers and resolved through the ArtifactCache.
 * Results come back in `names` order, bit-identical for any worker
 * count.
 */
std::vector<SimStats>
runVariant(const RunnerConfig &config,
           const std::vector<std::string> &names,
           const ControllerSpec &controller,
           ClockMode mode = ClockMode::Mcd, Hertz startFreq = 0.0);

/** Cached per-benchmark baselines reused across sweep points. */
struct SweepBaselines
{
    std::map<std::string, SimStats> mcd;
    std::map<std::string, SimStats> sync;
};

SweepBaselines computeBaselines(const RunnerConfig &config,
                                const std::vector<std::string> &names);

/** Aggregate metrics of one Attack/Decay configuration. */
struct SweepPoint
{
    double parameter = 0.0;
    double edpImprovementVsMcd = 0.0;
    double powerPerfRatio = 0.0;
    double perfDegradationVsSync = 0.0;
    double edpImprovementVsSync = 0.0;
    double energySavingsVsMcd = 0.0;
};

/** Run one A/D configuration over the subset and aggregate. */
SweepPoint runSweepPoint(const RunnerConfig &config,
                         const std::vector<std::string> &names,
                         const SweepBaselines &baselines,
                         const AttackDecayConfig &adc, double parameter);

} // namespace mcd::bench

#endif // MCD_BENCH_SWEEP_UTIL_HH
