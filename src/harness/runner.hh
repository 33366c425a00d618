/**
 * @file
 * Experiment methodology and comparators: the shared RunnerConfig, the
 * machine it describes, and the Runner's comparator requests (baseline
 * MCD, off-line Dynamic-X% MCD, globally scaled synchronous). The
 * search drivers that tune the off-line margin and the global-DVFS
 * frequency to a performance target are the builds of their specs
 * (OfflineSearchSpec, GlobalMatchSpec), defined in runner.cc.
 *
 * Every variant of one benchmark consumes the identical micro-op stream
 * (same spec, seed, and horizon) and identical clock seeds, so measured
 * differences come from the machine, not the workload.
 */

#ifndef MCD_HARNESS_RUNNER_HH
#define MCD_HARNESS_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "control/attack_decay.hh"
#include "control/basic_controllers.hh"
#include "control/controller_registry.hh"
#include "core/simulator.hh"
#include "harness/metrics.hh"
#include "workload/benchmark_factory.hh"

namespace mcd
{

/** Shared measurement methodology for a set of experiments. */
struct RunnerConfig
{
    std::uint64_t instructions = 400000; //!< measured window
    std::uint64_t warmup = 50000;        //!< excluded from measurement
    std::uint64_t clockSeed = 12345;
    bool jitter = true;
    CoreConfig core{};
    DvfsConfig dvfs{};
    EnergyConfig energy{};

    /**
     * Control interval in committed instructions. The paper samples
     * every 10,000 instructions over 50M-200M instruction windows
     * (5,000-20,000 control epochs). Our scaled windows keep the
     * controller's per-epoch dynamics identical but shrink the epoch so
     * the number of control epochs stays paper-like (DESIGN.md,
     * substitution 4). 1,000 instructions is still an order of
     * magnitude above the control-loop delay, preserving stability.
     */
    int intervalInstructions = 1000;

    /**
     * Worker threads for batched searches (the offline Dynamic-X%
     * margin probes) and for ParallelSweep instances built from this
     * config. 0 selects ParallelSweep::defaultWorkers() (MCD_JOBS env
     * override, else hardware concurrency); 1 forces serial execution.
     * Results are bit-identical for any value.
     */
    int jobs = 0;

    /**
     * Root directory of the persistent artifact store ("" = in-memory
     * only). When set — directly, via `MCD_STORE`, or via `mcd_cli
     * --store` — every artifact request made with this config attaches
     * the process-wide ArtifactCache's disk layer to it, so results
     * persist across processes. Like `jobs`, this is excluded from
     * cache keys: where a result is stored never changes its value.
     */
    std::string store;

    /** Apply MCD_INSNS / MCD_WARMUP / MCD_INTERVAL / MCD_JOBS /
     *  MCD_STORE env overrides. */
    void applyEnvOverrides();

    /**
     * Append the exact methodology+machine serialization every
     * artifact cache key embeds (common/serial.hh byte layout). The
     * leading methodology version retires every cached artifact when
     * the measurement procedure itself changes (v2: warm-up runs
     * uncontrolled and the controller engages at the measurement
     * boundary). `jobs` and `store` are deliberately excluded: the
     * determinism contract makes results worker-count independent, and
     * the storage location never changes a value.
     */
    void appendTo(std::string &out) const;

    /** One-line human-readable summary (provenance sidecars). */
    std::string describe() const;
};

/**
 * The machine a RunnerConfig describes, assembled for one (mode,
 * start-frequency) operating point. Single definition shared by the
 * run path (runWithController) and the checkpoint builder
 * (harness/checkpoint.cc) so a restored snapshot always meets the
 * exact machine that produced it.
 */
SimConfig makeSimConfig(const RunnerConfig &config, ClockMode mode,
                        Hertz start_freq);

/** Result of an off-line Dynamic-X% search. */
struct OfflineResult
{
    SimStats stats;
    double margin = 0.0;      //!< tuned aggressiveness knob
    double achievedDeg = 0.0; //!< degradation vs the baseline MCD run
};

/** Result of a global-DVFS frequency match. */
struct GlobalResult
{
    SimStats stats;
    Hertz freq = 0.0;
};

class ArtifactCache;

/**
 * The paper's comparator machines for one benchmark, as requests:
 * each method builds the spec of its product (harness/experiment.hh)
 * and resolves it, so a warm store answers without simulating. Every
 * other machine is an ExperimentSpec resolved directly.
 *
 * Every artifact a Runner requests — baselines, searches and, nested
 * inside them, probes and warm-up checkpoints — resolves through one
 * ArtifactCache: the process-wide instance by default, or the cache
 * it was given, so a private cache's nested requests and counters stay
 * in that cache.
 */
class Runner
{
  public:
    /** A runner resolving through ArtifactCache::instance(). */
    explicit Runner(const RunnerConfig &config = RunnerConfig{});

    /** A runner resolving through `cache` (which must outlive it). */
    Runner(const RunnerConfig &config, ArtifactCache &cache);

    const RunnerConfig &config() const { return config_; }

    /** The cache every request of this runner resolves through. */
    ArtifactCache &cache() const { return *cache_; }

    /**
     * Baseline MCD processor (all domains at maximum). Optionally
     * returns the per-interval profile used by the off-line algorithm.
     * Both products — the SimStats and the profile — resolve through
     * the artifact store (ExperimentSpec / ProfileSpec), so a warm
     * store serves them with zero simulations and a cold one pays a
     * single profiling run for the pair.
     */
    SimStats runMcdBaseline(const std::string &bench,
                            std::vector<IntervalProfile> *profile =
                                nullptr);

    /**
     * Off-line Dynamic-X% comparator: tune the schedule margin so the
     * replayed run degrades by `target_deg` over `mcd_base`. The whole
     * search result is an OfflineSearchSpec artifact — a warm store
     * returns it without probing at all.
     */
    OfflineResult runOfflineDynamic(
        const std::string &bench, double target_deg,
        const SimStats &mcd_base,
        const std::vector<IntervalProfile> &profile);

    /**
     * Global DVFS comparator, frequency-matched interpretation (used by
     * Table 6): the whole synchronous chip is slowed by the target
     * degradation factor, f = f_max / (1 + target_deg). This matches the
     * paper's analysis of "realistic global frequency/voltage scaling",
     * which treats the frequency cut as the performance cost (and hence
     * reports the power/performance ratio near 2).
     */
    GlobalResult runGlobalAtDegradation(const std::string &bench,
                                        double target_deg);

    /** The closed-form frequency runGlobalAtDegradation runs at:
     *  f = f_max / (1 + target_deg), clamped to the DVFS range. */
    Hertz globalMatchedFrequency(double target_deg) const;

    /**
     * Global DVFS comparator, time-matched interpretation (ablation):
     * the single synchronous frequency whose measured run time matches
     * `target_time` (GlobalMatchSpec). Memory-bound applications
     * barely slow down with frequency, so this interpretation lets
     * global DVFS cut frequency much deeper. A warm store skips the
     * calibration runs entirely.
     */
    GlobalResult runGlobalMatching(const std::string &bench,
                                   Tick target_time);

  private:
    RunnerConfig config_;
    ArtifactCache *cache_;
};

} // namespace mcd

#endif // MCD_HARNESS_RUNNER_HH
