/**
 * @file
 * The declarative experiment layer. A typed request spec fully
 * describes one experiment product, knows how to build it, and
 * resolves through a process-wide, pluggable artifact cache:
 *
 *   ExperimentSpec    -> SimStats                    (one simulation)
 *   ProfileSpec       -> std::vector<IntervalProfile> (the off-line
 *                        profiling pass; publishes the paired baseline
 *                        SimStats as a second artifact of the same run)
 *   OfflineSearchSpec -> OfflineResult   (a whole Dynamic-X% search)
 *   GlobalMatchSpec   -> GlobalResult    (a time-matched global-DVFS
 *                        calibration search)
 *   CheckpointSpec    -> SimCheckpoint   (harness/checkpoint.hh)
 *   TraceSpec         -> EvalTrace       (eval/trace.hh)
 *
 * Every simulation runs through one function, `runWithController`:
 * warm-up checkpoint, then engage the controller, then measure.
 *
 * Each spec has an exact, namespaced `cacheKey()` covering every
 * field that can influence the result (raw IEEE-754 bytes for
 * doubles, length-prefixed strings; see common/serial.hh). Bulky
 * nested payloads (an OfflineSearchSpec's baseline stats and interval
 * profile) enter as fixed-width FNV-1a digests of their exact
 * serializations rather than verbatim. Equal keys therefore imply
 * bit-identical artifacts, and a cached artifact is indistinguishable
 * from recomputing. `RunnerConfig::jobs` and `RunnerConfig::store` are
 * deliberately excluded — the determinism contract makes results
 * independent of worker count, and the storage location never changes
 * a value.
 *
 * The `ArtifactCache` layers the in-process `MemoryStore` over an
 * optional persistent `DiskStore` (harness/artifact_store.hh),
 * selected by `RunnerConfig::store` / the `MCD_STORE` environment
 * variable / `mcd_cli --store`. Reads hit memory first (a warm
 * process never re-reads disk), then disk (validated and promoted to
 * memory), and only then simulate; computed artifacts are written
 * through to both layers, so a warm disk store reproduces every
 * figure across processes with zero simulations.
 */

#ifndef MCD_HARNESS_EXPERIMENT_HH
#define MCD_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "control/controller_registry.hh"
#include "harness/artifact.hh"
#include "harness/artifact_store.hh"
#include "harness/runner.hh"
#include "telemetry/stat_registry.hh"

namespace mcd
{

/** Everything needed to run (or memoize) one simulation. */
struct ExperimentSpec
{
    using Artifact = SimStats;

    std::string benchmark;          //!< any registered scenario name
    ClockMode mode = ClockMode::Mcd;
    Hertz startFreq = 0.0;          //!< 0 selects config.dvfs.freqMax
    ControllerSpec controller;       //!< default: "none" (uncontrolled)
    RunnerConfig config;             //!< methodology + machine

    /** The frequency the machine actually starts at. */
    Hertz resolvedStartFreq() const
    {
        return startFreq > 0.0 ? startFreq : config.dvfs.freqMax;
    }

    /** Exact, collision-free artifact key (namespace "experiment"). */
    std::string cacheKey() const;

    /** Short display hash of the cache key (FNV-1a, for --json). */
    std::uint64_t hash() const;

    /** One-line human-readable description (provenance sidecars). */
    std::string describe() const;

    /** Run the spec (runExperiment) and count one simulation. */
    SimStats build(ArtifactCache &cache) const;
};

/**
 * The off-line profiling pass of one benchmark: baseline MCD machine,
 * profiling controller, per-interval activity recorded. Its artifact
 * is the interval profile; the run's SimStats are published under the
 * paired `experimentSpec()` key as a by-product, so requesting both
 * (as Runner::runMcdBaseline does) costs one simulation.
 */
struct ProfileSpec
{
    using Artifact = std::vector<IntervalProfile>;

    std::string benchmark;
    RunnerConfig config;

    /** The ExperimentSpec of the same run (its SimStats artifact). */
    ExperimentSpec experimentSpec() const;

    /** Exact, collision-free artifact key (namespace "profile"). */
    std::string cacheKey() const;

    /** One-line human-readable description (provenance sidecars). */
    std::string describe() const;

    /** Run the profiling pass (one simulation) and publish its
     *  SimStats under experimentSpec()'s key. */
    std::vector<IntervalProfile> build(ArtifactCache &cache) const;
};

/**
 * A whole off-line Dynamic-X% margin search. The key covers the
 * baseline stats and interval profile the search tunes against as
 * fixed-width FNV-1a digests of their exact serializations (key format
 * v2) — embedding the multi-KB payloads themselves made every search
 * key giant, and it bought nothing: under the determinism contract
 * both inputs are pure functions of (benchmark, config), so distinct
 * inputs differing only inside a 64-bit hash collision cannot arise
 * from real runs.
 */
struct OfflineSearchSpec
{
    using Artifact = OfflineResult;

    std::string benchmark;
    double targetDeg = 0.0;              //!< degradation cap
    SimStats mcdBase{};                  //!< baseline MCD reference
    std::vector<IntervalProfile> profile; //!< profiling-pass output
    RunnerConfig config;

    /** Digest-keyed artifact key (namespace "offline_search/2"). */
    std::string cacheKey() const;

    /** One-line human-readable description (provenance sidecars). */
    std::string describe() const;

    /**
     * The search (harness/runner.cc), in parallel batches of schedule
     * replays: a coarse grid of shared margins, a bracketed
     * refinement, per-domain refinement one factor level at a time
     * (a domain's deeper factor is probed only if the shallower one
     * held), then one validation run per combined domain. It
     * simulates nothing itself: every probe is a nested ExperimentSpec
     * request that memoizes and counts itself, so probes shared
     * between searches (the coarse grids of Dynamic-1% and
     * Dynamic-5%) simulate once.
     */
    OfflineResult build(ArtifactCache &cache) const;
};

/** A time-matched global-DVFS calibration search (ablation driver). */
struct GlobalMatchSpec
{
    using Artifact = GlobalResult;

    std::string benchmark;
    Tick targetTime = 0; //!< run time the search matches
    RunnerConfig config;

    /** Exact, collision-free key (namespace "global_match"). */
    std::string cacheKey() const;

    /** One-line human-readable description (provenance sidecars). */
    std::string describe() const;

    /**
     * The calibration search (harness/runner.cc): fit T(f) = a + b/f
     * from two synchronous runs, solve for the target, then one secant
     * refinement. Its synchronous runs are nested ExperimentSpec
     * requests.
     */
    GlobalResult build(ArtifactCache &cache) const;
};

/**
 * The typed artifact cache: spec-keyed storage for every experiment
 * product, layered memory-over-disk. Thread-safe; concurrent requests
 * for one key compute the artifact once and share it. Nested requests
 * are the norm — an OfflineSearchSpec's compute issues dozens of
 * ExperimentSpec requests for its probes — and every level memoizes,
 * so `simulationsRun()` counts actual simulator executions only:
 * `lookups() - hits()` artifacts were computed, of which
 * `simulationsRun()` required running the simulator.
 *
 * `instance()` is the process-wide cache that Runners,
 * `runExperiments` and bench consumers resolve through by default; independently-constructed instances
 * serve tests (e.g. simulating a cold process against a warm
 * DiskStore) and the serve daemon. Every nested request an artifact's
 * build makes — its warm-up checkpoint, a search's probes — resolves
 * through the cache building it, never the process-wide one.
 */
class ArtifactCache
{
  public:
    ArtifactCache() = default;

    static ArtifactCache &instance();

    /**
     * The memoized artifact of `spec`, built on first request. `Spec`
     * provides
     *   using Artifact = ...;           // has ArtifactTraits
     *   std::string cacheKey() const;   // exact, namespaced key
     *   std::string describe() const;   // provenance sidecar line
     *   RunnerConfig config;            // config.store attaches disk
     *   Artifact build(ArtifactCache &) const;  // compute on a miss
     *                                   // (call noteSimulation per
     *                                   //  simulator execution)
     * Every experiment product — the six spec types of the file
     * comment — resolves here, and so shares the layered store and
     * its warm-store zero-simulation replay.
     */
    template <typename Spec>
    typename Spec::Artifact
    getOrRun(const Spec &spec)
    {
        return getOrBuild(spec, [&] { return spec.build(*this); });
    }

    /**
     * getOrRun with a caller-supplied compute for the miss: `build`
     * returns the Spec::Artifact in place of `spec.build(*this)`. This
     * is how a run produces its own warm-up checkpoint
     * (runWithController): the first run to miss warms its machine,
     * snapshots it, and keeps the machine running.
     */
    template <typename Spec, typename Build>
    typename Spec::Artifact
    getOrBuild(const Spec &spec, Build &&build)
    {
        using Artifact = typename Spec::Artifact;
        attachDiskStore(spec.config.store);
        std::string blob = fetch(
            spec.cacheKey(),
            [](const std::string &b) {
                Artifact value;
                return decodeArtifact(b, value);
            },
            [&] { return encodeArtifact(build()); }, spec.describe());
        Artifact value;
        if (!decodeArtifact(blob, value))
            mcd_panic("validated artifact blob failed to decode");
        return value;
    }

    /**
     * Store `value` as `spec`'s artifact in both layers, unasked: a
     * by-product of another build (ProfileSpec::build publishes its
     * run's SimStats this way).
     */
    template <typename Spec>
    void
    publish(const Spec &spec, const typename Spec::Artifact &value)
    {
        publish(spec.cacheKey(), encodeArtifact(value), spec.describe());
    }

    /** Count one simulator execution (build callbacks call this). */
    void noteSimulation();

    /**
     * Count `count` simulated (committed) instructions. The runner and
     * checkpoint builders report how far each simulator actually
     * stepped, so `simulatedInstructions()` measures the real
     * simulation work a process performed — the counter the
     * checkpoint-resume CI job asserts shrinks when a warm store
     * fast-forwards runs past their warm-up.
     */
    void noteInstructions(std::uint64_t count);

    /**
     * Attach the persistent layer rooted at `root` (created on
     * demand). No-op when `root` is empty or already attached. A
     * *different* root while one is attached is a hard error (fatal):
     * silently swapping stores mid-process would strand everything
     * written to the first root and mix `diskHits()` across stores —
     * run separate processes, or `detachDiskStore()` first (tests).
     * Called automatically by every getOrRun with the spec's
     * `config.store`, so `MCD_STORE` / `--store` /
     * `RunnerConfig::store` all funnel through here.
     */
    void attachDiskStore(const std::string &root);

    /** Drop the persistent layer (memory layer kept). */
    void detachDiskStore();

    /** Total getOrRun calls, including nested (probe) requests. */
    std::uint64_t lookups() const;

    /** Lookups served without computing (memory or disk). */
    std::uint64_t hits() const;

    /** Hits served by the disk layer (validated, then promoted). */
    std::uint64_t diskHits() const;

    /**
     * Lookups that joined another caller's in-flight fetch of the same
     * key instead of resolving it themselves — the cross-client dedup
     * counter: two concurrent requests for one uncached spec are one
     * compute and one join. A join counts when it arrives, while the
     * fetch it joined is still in flight. Requests arriving after
     * resolution are plain memory hits, not joins.
     */
    std::uint64_t inflightJoins() const;

    /**
     * Whether `key` is already resident — in the memory layer, or
     * present (unvalidated) in the attached disk layer. A reporting
     * hint (the serve layer's cold/warm request classification), not a
     * correctness primitive: a `true` may still fail validation and
     * recompute, and the answer can be stale by the time it returns.
     */
    bool cachedHint(const std::string &key);

    /** Actual simulations executed — the run counter. */
    std::uint64_t simulationsRun() const;

    /** Committed instructions actually simulated (noteInstructions). */
    std::uint64_t simulatedInstructions() const;

    /** Distinct artifacts in the memory layer. */
    std::size_t size() const;

    /**
     * Keys currently being computed. Transiently positive while a
     * fetch is in flight and back to zero once every request resolves
     * — the regression surface for the historical leak where resolved
     * flights were never erased and the map grew per unique key
     * forever.
     */
    std::size_t inflightEntries() const;

    /** Disk-layer root directory ("" when no disk layer). */
    std::string storeRoot() const;

    /** Entries in the disk layer (0 when no disk layer). */
    std::size_t diskEntries() const;

    /** Bytes on disk in the disk layer (0 when no disk layer). */
    std::uint64_t diskBytes() const;

    /**
     * Drop the memory layer and zero the counters, keeping any disk
     * layer attached (tests: this is "start a cold process").
     */
    void clear();

  private:
    struct Inflight
    {
        std::once_flag once;
    };

    /**
     * The layered fetch: memory, then validated disk (promoted), then
     * `build` (written through to both layers, with `provenance` as
     * the disk layer's sidecar text). `validate` re-decodes a
     * candidate blob so corrupt or stale-version disk entries read as
     * misses. Returns a blob that passed `validate`. The key's
     * inflight slot is erased once resolved — later requests re-enter
     * and hit the memory layer instead of an ever-growing map.
     */
    std::string
    fetch(const std::string &key,
          const std::function<bool(const std::string &)> &validate,
          const std::function<std::string()> &build,
          const std::string &provenance);

    /** Store a by-product blob under `key` in both layers. */
    void publish(const std::string &key, const std::string &blob,
                 const std::string &provenance);

    /** Publish this instance's counters in the process StatRegistry
     *  under `store.*` / `sim.*` — instance() does this once, so
     *  test-local caches stay out of the process metrics. */
    void bindStats();

    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<Inflight>>
        inflight_;
    MemoryStore memory_;
    // shared_ptr: fetch/publish snapshot the layer and keep it alive
    // across a long build even if attach/detachDiskStore swaps it out
    // concurrently.
    std::shared_ptr<DiskStore> disk_;
    // Counters are atomics (telemetry::Counter) so reads never take
    // mutex_ and the StatRegistry can expose them as bound views.
    telemetry::Counter lookups_;
    telemetry::Counter computes_;
    telemetry::Counter disk_hits_;
    telemetry::Counter sims_;
    telemetry::Counter sim_insns_;
    telemetry::Counter inflight_joins_;
};

/**
 * The one run sequence every simulation goes through: run
 * `spec.benchmark` on `spec`'s machine under `controller` (owned by
 * the caller, which may read it afterwards; null = uncontrolled) in
 * place of a registry instance of `spec.controller`, streaming
 * measured intervals to `observer` when given.
 *
 * Methodology v2: the warm-up prefix always runs uncontrolled
 * (domains at the start frequency); the controller and the observer
 * engage at the measurement boundary, right after
 * `resetMeasurement()`. The warm-up machine state is therefore a pure
 * function of (benchmark, mode, start frequency, config), shared by
 * every controller, so it resolves through one
 * `CheckpointSpec{at = warmup}` artifact in `cache`: the first run to
 * miss warms its own machine and snapshots it in place, and every
 * later variant builds its machine, restores the snapshot and
 * simulates only the measured window. Counts the instructions it
 * steps, not the simulation (the caller's artifact build does that).
 */
SimStats runWithController(
    const ExperimentSpec &spec, FrequencyController *controller,
    ArtifactCache &cache,
    std::function<void(const IntervalStats &)> observer = {});

/**
 * Run one ExperimentSpec directly under a registry instance of its
 * controller, bypassing the cache for its result. Its warm-up
 * boundary checkpoint still resolves through `cache` (the cache
 * building the result when this runs inside a getOrRun), and so does
 * its side effect: the first call stores the checkpoint there — and
 * in the disk store when `spec.config.store` is set — and a later
 * call for the same benchmark and config restores it instead of
 * simulating the warm-up. Pass a fresh ArtifactCache for an
 * independent, straight-through run.
 */
SimStats runExperiment(const ExperimentSpec &spec,
                       ArtifactCache &cache = ArtifactCache::instance());

/**
 * Run a batch of specs fanned across ParallelSweep workers (`jobs` as
 * in RunnerConfig::jobs: 0 = default workers, 1 = serial), each
 * resolved through `cache`. Results are in spec order and
 * bit-identical for any worker count; duplicate specs — within the
 * batch or against anything cached earlier in the process or
 * persisted in the disk store — simulate only once.
 */
std::vector<SimStats>
runExperiments(const std::vector<ExperimentSpec> &specs, int jobs = 0,
               ArtifactCache &cache = ArtifactCache::instance());

/**
 * The canonical `store:` stderr status line, e.g.
 *   store: lookups=12 hits=4 disk_hits=2 simulations=8
 *          instructions=160000 disk_entries=8 disk_bytes=4096
 *          root=/tmp/store
 * (one line; disk fields only with a disk layer attached). Every
 * call site — figure binaries, fleet workers, the serve daemon —
 * renders through here so the fields can't drift apart from the
 * counters or from fleet's worker-stderr parser.
 */
std::string storeStatsLine(const ArtifactCache &cache);

} // namespace mcd

#endif // MCD_HARNESS_EXPERIMENT_HH
