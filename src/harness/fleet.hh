/**
 * @file
 * The fleet layer: shard a batch of figure/ablation targets across N
 * concurrent worker *processes* — fork/exec of `mcd_cli figure NAME`
 * (or any command) — all pointed at one shared `MCD_STORE` artifact
 * store. This is where the determinism contract pays off across
 * process boundaries: every worker computes bit-identical artifacts
 * for equal keys, `DiskStore` writes are atomic, so workers share
 * baselines and searches through the store instead of recomputing
 * them, and a warm store replays the whole fleet with zero
 * simulations.
 *
 * The driver provides
 *  - a bounded process pool (`FleetOptions::procs`) fed work-queue
 *    style, with per-target stdout/stderr capture;
 *  - per-target retry-on-crash (`FleetOptions::retries` respawns for
 *    nonzero exits or signals — a crashed worker costs only the
 *    artifacts it had not yet written);
 *  - a merged `store:` report parsed from each worker's stderr line
 *    (`mcd_cli figure` prints it) and summed across the fleet;
 *  - deterministic collation: `FleetReport::targets` is in submission
 *    order regardless of scheduling, so concatenated per-target
 *    stdout is byte-identical for any `procs`.
 *
 * Surfaced as `mcd_cli fleet <targets...> --procs N --store DIR`
 * (bench/mcd_cli.cc); store lifecycle (GC, provenance sidecars) lives
 * in `DiskStore::prune` / `mcd_cli cache prune`.
 */

#ifndef MCD_HARNESS_FLEET_HH
#define MCD_HARNESS_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mcd
{

/** One unit of fleet work: a child process to run to completion. */
struct FleetTarget
{
    std::string name;              //!< display/collation name
    std::vector<std::string> argv; //!< program path + arguments
};

/** Worker store counters, parsed from its `store:` stderr line. */
struct FleetStoreStats
{
    bool present = false; //!< the worker printed a `store:` line
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t simulations = 0;
};

/** How to run the fleet. */
struct FleetOptions
{
    /** Concurrent worker processes (clamped to >= 1). */
    int procs = 1;

    /** Respawns allowed per target after a crash or nonzero exit. */
    int retries = 1;

    /**
     * Shared artifact store root exported to every worker as
     * MCD_STORE ("" = inherit the parent environment unchanged).
     */
    std::string store;
};

/** Outcome of one target (its final attempt). */
struct FleetResult
{
    std::string name;
    bool succeeded = false;
    int attempts = 0;
    int exitCode = -1;      //!< final exit code; 128+signo for signals
    std::string stdoutText; //!< captured stdout of the final attempt
    std::string stderrText; //!< captured stderr of the final attempt
    FleetStoreStats store;  //!< parsed from the final attempt
};

/** Outcome of the whole fleet. */
struct FleetReport
{
    std::vector<FleetResult> targets; //!< in submission order
    FleetStoreStats merged; //!< summed over final attempts
    std::size_t failed = 0;  //!< targets whose final attempt failed
    std::size_t retried = 0; //!< targets that needed > 1 attempt
};

/**
 * Parse the last `store: lookups=... hits=... disk_hits=...
 * simulations=...` line out of a worker's captured stderr.
 * `present` is false when no such line exists (the target is not one
 * of our figures, or it died before reporting).
 */
FleetStoreStats parseStoreStatsLine(const std::string &stderr_text);

/**
 * Run every target to completion across `options.procs` concurrent
 * worker processes and collate the results in submission order.
 * Workers inherit the parent environment, with MCD_STORE overridden
 * to `options.store` when set. Blocks until the fleet drains; never
 * throws on target failure (inspect `failed` / per-target results).
 */
FleetReport runFleet(const std::vector<FleetTarget> &targets,
                     const FleetOptions &options);

} // namespace mcd

#endif // MCD_HARNESS_FLEET_HH
