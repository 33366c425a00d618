/**
 * @file
 * Shared machinery for the paper's figures and tables (figures.hh): a
 * common environment-configurable methodology, spec builders for the
 * canonical machine variants, and the canonical result set (fully
 * synchronous, baseline MCD, Attack/Decay, Dynamic-1%, Dynamic-5%,
 * matched Global DVFS) each experiment draws from. Every run goes
 * through the process-wide ArtifactCache, so a (benchmark, machine)
 * pair shared by several experiments in one process simulates once —
 * and with MCD_STORE set, across processes: a warm disk store
 * reproduces a figure's stdout byte-for-byte with zero simulations.
 *
 * Environment knobs (all optional):
 *   MCD_INSNS       measured instructions per run   (default 250000)
 *   MCD_WARMUP      warm-up instructions            (default 50000)
 *   MCD_INTERVAL    controller interval             (default 1000)
 *   MCD_BENCHMARKS  comma-separated scenario list   (default: all 30;
 *                   any registered scenario works, incl. synthetic:)
 *   MCD_JOBS        sweep worker threads            (default: all cores)
 *   MCD_STORE       persistent artifact store root  (default: none)
 */

#ifndef MCD_BENCH_BENCH_UTIL_HH
#define MCD_BENCH_BENCH_UTIL_HH

#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

namespace mcd::bench
{

/** All canonical results for one benchmark. */
struct BenchResults
{
    std::string name;
    SimStats sync;          //!< fully synchronous at 1 GHz
    SimStats mcdBase;       //!< baseline MCD, all domains at 1 GHz
    SimStats attackDecay;
    OfflineResult dynamic1; //!< off-line, 1 % cap over baseline MCD
    OfflineResult dynamic5; //!< off-line, 5 % cap
    std::optional<GlobalResult> globalAd;   //!< matched to A/D time
    std::optional<GlobalResult> globalDyn1;
    std::optional<GlobalResult> globalDyn5;
};

/** Which expensive pieces to compute. */
struct ComputeOptions
{
    bool offline = true;
    bool globals = true;
};

/** The standard runner config with env overrides applied. */
RunnerConfig standardConfig();

/**
 * The Attack/Decay configuration used for scaled runs: the paper's
 * Section 5 configuration with two interval-scaling compensations
 * (Decay = 1.25 %, PerfDegThreshold = 1.5 %). The single definition
 * — with the full rationale — is `scaledAttackDecayConfig()` in
 * control/attack_decay.hh; this wrapper is kept for the benches'
 * existing call sites.
 */
AttackDecayConfig scaledAttackDecay();

/** Scenarios selected via MCD_BENCHMARKS, or the paper's 30. */
std::vector<std::string> selectedBenchmarks();

/**
 * The methodology for benchmark index `i` of a batch: the base config
 * with the clock seed derived from `i`. The single seed-matching
 * point for every bench-side batch — all runs of one benchmark
 * (baseline or variant, in any batch over the same list) must use
 * this config so comparisons consume the same clock stream.
 */
RunnerConfig benchmarkConfig(const RunnerConfig &base,
                             std::size_t index);

/**
 * The declarative form of one canonical run: `bench` under
 * `controller` on the machine/methodology of `config`. Synchronous
 * variants pass ClockMode::Synchronous; startFreq 0 means f_max.
 */
ExperimentSpec makeSpec(const RunnerConfig &config,
                        const std::string &bench,
                        const ControllerSpec &controller,
                        ClockMode mode = ClockMode::Mcd,
                        Hertz startFreq = 0.0);

/** Run the canonical experiment set for one benchmark, every product
 *  resolved through `runner`'s cache. */
BenchResults computeOne(Runner &runner, const std::string &name,
                        const ComputeOptions &options);

/**
 * Run the canonical experiment set for many benchmarks, fanned across
 * the ParallelSweep workers (`base.jobs`), with progress lines on
 * stderr. Benchmark i runs on benchmarkConfig(base, i); its offline
 * searches nest on the same pool at the same width.
 * Results are in `names` order and bit-identical for any worker count.
 */
std::vector<BenchResults>
computeAll(const RunnerConfig &base,
           const std::vector<std::string> &names,
           const ComputeOptions &options);

/** Print the methodology banner (window sizes, interval). */
void printMethodology(const RunnerConfig &config);

/**
 * Print the ArtifactCache counters — and, when a disk store is
 * attached, its root/entries/bytes — as one machine-greppable stderr
 * line (`store: lookups=... simulations=...`). `mcd_cli figure`
 * calls this after the figure; stderr keeps a warm re-run's stdout
 * byte-identical to the cold run's while CI asserts `simulations=0`
 * on the warm one.
 */
void reportStoreStats();

} // namespace mcd::bench

#endif // MCD_BENCH_BENCH_UTIL_HH
