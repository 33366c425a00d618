/**
 * @file
 * Warm-up checkpoints as first-class artifacts. A `CheckpointSpec`
 * names one point of one run's uncontrolled prefix — benchmark,
 * machine mode, start frequency, commit-count target, methodology —
 * and resolves through an `ArtifactCache` to a `SimCheckpoint`: the
 * exact serialized machine (`Simulator::saveCheckpoint`) at that
 * point.
 *
 * Every run with a warm-up resolves its warm-up boundary this way
 * (Runner::runWithOptionalController): warm-up runs uncontrolled
 * (methodology v2), so the controller never appears in the key and
 * every variant of one (benchmark, mode, start frequency, config) —
 * controller variants, a search's schedule probes — shares one
 * snapshot. The first run to miss warms its own machine, snapshots it
 * in place and carries on; later runs restore it and simulate only
 * their measured window.
 *
 * The bit-identity contract: restoring a checkpoint and running on is
 * byte-identical to having simulated straight through. It rests on
 * two invariants the core layer tests pin down:
 *
 *  - run composition (`SplitRunsComposeExactly`): `runTo` stops are
 *    behavior-free, so stopping at the boundary changes nothing;
 *  - exact state capture: every stateful subsystem serializes with
 *    raw-bit encodings (IEEE-754 doubles included) and the pending
 *    power batch is saved unflushed, so even floating-point summation
 *    order is reproduced. Caches, BTB and predictor tables store only
 *    their valid or changed entries, which is exact because a run
 *    never reads an invalid entry's fields.
 *
 * Stale versions and corrupt blobs decode as cache misses and heal by
 * re-simulation, like every other artifact.
 */

#ifndef MCD_HARNESS_CHECKPOINT_HH
#define MCD_HARNESS_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "harness/experiment.hh"

namespace mcd
{

/** One stored machine snapshot: the artifact of a CheckpointSpec. */
struct SimCheckpoint
{
    /**
     * Commit count the machine actually reached — the requested `at`
     * plus up to retireWidth-1 overshoot (the commit stage never stops
     * mid-retire-group; that is what makes stops behavior-free).
     */
    std::uint64_t atInstructions = 0;

    /** Simulator::saveCheckpoint bytes (restoreCheckpoint's input). */
    std::string state;

    /** Snapshot `sim` as it stands (saving does not perturb it). */
    static SimCheckpoint capture(const Simulator &sim);
};

template <> struct ArtifactTraits<SimCheckpoint>
{
    static constexpr const char *name = "sim_checkpoint";
    /** 2: execution timing stored as absolute cycle deadlines. */
    static constexpr std::uint64_t version = 2;
    static void encodePayload(std::string &out, const SimCheckpoint &c);
    static bool decodePayload(serial::Reader &in, SimCheckpoint &c);
};

/**
 * Request spec for the machine snapshot at committed-instruction
 * point `at` of one run's uncontrolled prefix. The key covers
 * everything that shapes the machine up to that point — benchmark,
 * mode, start frequency, `at`, methodology/machine config — and
 * nothing else: controllers engage only after warm-up.
 */
struct CheckpointSpec
{
    using Artifact = SimCheckpoint;

    std::string benchmark;
    ClockMode mode = ClockMode::Mcd;
    Hertz startFreq = 0.0; //!< 0 selects config.dvfs.freqMax
    std::uint64_t at = 0;  //!< runTo target in committed instructions
    RunnerConfig config;   //!< methodology + machine

    /** The frequency the machine actually starts at. */
    Hertz resolvedStartFreq() const
    {
        return startFreq > 0.0 ? startFreq : config.dvfs.freqMax;
    }

    /** Exact, collision-free artifact key (namespace "checkpoint/2"). */
    std::string cacheKey() const;

    /** One-line human-readable description (provenance sidecars). */
    std::string describe() const;

    /** Simulate a machine of its own to `at` and snapshot it
     *  (capture()); counts one simulation and its instructions. */
    SimCheckpoint build(ArtifactCache &cache) const;
};

} // namespace mcd

#endif // MCD_HARNESS_CHECKPOINT_HH
