/**
 * @file
 * Pluggable artifact storage: an `ArtifactStore` maps exact cache keys
 * (the spec `cacheKey()` byte strings) to encoded artifact blobs
 * (`harness/artifact.hh`). Two backends:
 *
 *  - `MemoryStore` — the in-process map; cheap, dies with the process.
 *  - `DiskStore`   — content-addressed files under a root directory
 *    (one file per key, named by the key's FNV-1a hash), written
 *    atomically (temp file + rename) so concurrent figure processes
 *    can share one store. Each file carries the full key plus a
 *    checksum; short, corrupt, mismatched-key (hash collision), or
 *    stale-format entries read as misses, never as wrong values.
 *
 * `DiskStore` also owns the store's lifecycle: `prune()` garbage-
 * collects — age- and size-budget eviction of entries plus a sweep of
 * stale `*.tmp.*` files orphaned by writers that died between
 * temp-write and rename. A `put` may carry a human-readable provenance
 * string, which the disk backend persists as a `<hash>.meta` sidecar
 * next to the entry so external tooling can tell what a hash is.
 * Sidecars and temp files are never counted by `entries()`/`bytes()`.
 *
 * Stores deal only in opaque blobs. The typed layer on top —
 * `ArtifactCache` in `harness/experiment.hh` — layers a MemoryStore
 * over an optional DiskStore and handles encode/decode/validation, so
 * a warm process never re-reads disk and a warm disk store serves
 * every artifact across processes with zero simulations.
 */

#ifndef MCD_HARNESS_ARTIFACT_STORE_HH
#define MCD_HARNESS_ARTIFACT_STORE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mcd
{

/** Key -> blob storage. Implementations must be thread-safe. */
class ArtifactStore
{
  public:
    virtual ~ArtifactStore() = default;

    /** Backend name for reporting ("memory", "disk"). */
    virtual const char *kind() const = 0;

    /** Fetch the blob stored under `key`; false on miss. */
    virtual bool get(const std::string &key, std::string &blob) = 0;

    /**
     * Store `blob` under `key`, replacing any existing entry. A
     * non-empty `provenance` is a human-readable description of the
     * key, persisted alongside the entry where the backend supports it
     * (the disk backend's `<hash>.meta` sidecar).
     */
    virtual void put(const std::string &key, const std::string &blob,
                     const std::string &provenance = "")
        = 0;

    /** Entries currently stored (for DiskStore: readable entries). */
    virtual std::size_t entries() const = 0;

    /** Total stored payload bytes (DiskStore: entry-file bytes). */
    virtual std::uint64_t bytes() const = 0;

    /** Root directory for disk-backed stores, "" otherwise. */
    virtual std::string root() const { return ""; }
};

/** The in-process backend: a mutex-guarded key -> blob map. */
class MemoryStore : public ArtifactStore
{
  public:
    const char *kind() const override { return "memory"; }
    bool get(const std::string &key, std::string &blob) override;
    void put(const std::string &key, const std::string &blob,
             const std::string &provenance = "") override;
    std::size_t entries() const override;
    std::uint64_t bytes() const override;

    /** Drop everything (tests, ArtifactCache::clear). */
    void clear();

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::string> map_;
    std::uint64_t bytes_ = 0;
};

/**
 * The persistent backend: one file per key under `root`, named
 * `<fnv1a(key) as 16 hex digits>.mcda`. The directory is created on
 * demand; `put` is atomic (unique temp file in the same directory,
 * then rename), so readers never observe partial writes and
 * concurrent writers of one key — necessarily writing bit-identical
 * blobs, by the determinism contract — harmlessly race on the rename.
 * All failure modes of `get` (missing file, truncation, bad magic or
 * format, checksum mismatch, a different key sharing the hash) return
 * false: the caller recomputes and overwrites.
 */
class DiskStore : public ArtifactStore
{
  public:
    /** What `prune()` may evict. Defaults evict nothing but stale
     *  temp files. */
    struct PruneOptions
    {
        /** Evict oldest entries until the store fits (0 = no budget). */
        std::uint64_t maxBytes = 0;

        /** Evict entries older than this (< 0 = no age limit). */
        std::int64_t maxAgeSeconds = -1;

        /**
         * Sweep `*.tmp.*` files older than this. Temp files are only
         * ever live for the duration of one write, so anything older
         * was orphaned by a writer that died between temp-write and
         * rename. Keep this above a write's lifetime (the default is
         * one hour) so a sweep never races a live writer's rename; 0
         * sweeps every temp file (quiescent stores only).
         */
        std::int64_t tmpAgeSeconds = 3600;
    };

    /** What one `prune()` call did. */
    struct PruneReport
    {
        std::size_t entriesRemoved = 0;
        std::uint64_t bytesRemoved = 0;
        std::size_t tmpsRemoved = 0;     //!< stale temp files swept
        std::size_t sidecarsRemoved = 0; //!< evicted or orphaned .meta
        std::size_t entriesKept = 0;
        std::uint64_t bytesKept = 0;
    };

    /** Fatal if `root` is empty or cannot be created. */
    explicit DiskStore(const std::string &root);

    const char *kind() const override { return "disk"; }
    bool get(const std::string &key, std::string &blob) override;
    void put(const std::string &key, const std::string &blob,
             const std::string &provenance = "") override;
    std::size_t entries() const override;
    std::uint64_t bytes() const override;
    std::string root() const override { return root_; }

    /** The file a key is stored under (tests, debugging). */
    std::string pathFor(const std::string &key) const;

    /** The provenance sidecar of a key (tests, external tooling). */
    std::string sidecarPathFor(const std::string &key) const;

    /**
     * Garbage-collect the store: sweep stale temp files, evict entries
     * past the age limit, then evict by descending (age+1) x bytes
     * score (stem as the deterministic tiebreak) until the size budget
     * holds. The size weighting keeps mixed-size stores fair: a bulky
     * checkpoint entry is charged for the space it holds, so it cannot
     * starve hundreds of slightly older small entries out of the
     * budget. Sidecars follow their entries; orphaned sidecars are
     * removed.
     * Safe against concurrent readers (they miss and heal) and
     * writers (atomic renames either land before the scan or after
     * it, never half-way).
     */
    PruneReport prune(const PruneOptions &options);

  private:
    std::string root_;
};

} // namespace mcd

#endif // MCD_HARNESS_ARTIFACT_STORE_HH
