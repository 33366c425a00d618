/**
 * @file
 * Tests for the pluggable artifact stores and the layered
 * ArtifactCache: MemoryStore/DiskStore blob semantics, disk
 * persistence across "processes" (independent cache instances over
 * one store root), corruption / version-mismatch / key-collision
 * entries reading as misses that recompute and heal, and the
 * one-simulation-two-artifacts contract of the profiling pass.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "harness/artifact.hh"
#include "harness/artifact_store.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"

namespace mcd
{
namespace
{

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        root_ = (fs::temp_directory_path() /
                 (std::string("mcd_store_test.") + info->name() + "." +
                  std::to_string(::getpid())))
                    .string();
        fs::remove_all(root_);
    }

    void TearDown() override { fs::remove_all(root_); }

    /** Flip one byte in the middle of a store entry file. */
    static void
    corruptFile(const std::string &path)
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good()) << path;
        f.seekg(0, std::ios::end);
        auto size = static_cast<std::streamoff>(f.tellg());
        ASSERT_GT(size, 0);
        f.seekg(size / 2);
        char c = 0;
        f.read(&c, 1);
        f.seekp(size / 2);
        c = static_cast<char>(c ^ 0x5a);
        f.write(&c, 1);
    }

    ExperimentSpec
    tinySpec(const std::string &bench = "gsm") const
    {
        ExperimentSpec spec;
        spec.benchmark = bench;
        spec.config.instructions = 3000;
        spec.config.warmup = 500;
        spec.config.intervalInstructions = 500;
        spec.config.store = root_;
        return spec;
    }

    std::string root_;
};

// ----------------------------------------------------------- backends

TEST_F(StoreTest, MemoryStoreBlobSemantics)
{
    MemoryStore store;
    std::string blob;
    EXPECT_FALSE(store.get("k", blob));
    EXPECT_EQ(store.entries(), 0u);

    store.put("k", "abc");
    ASSERT_TRUE(store.get("k", blob));
    EXPECT_EQ(blob, "abc");
    EXPECT_EQ(store.entries(), 1u);
    EXPECT_EQ(store.bytes(), 3u);

    store.put("k", "defgh"); // replace, byte count follows
    ASSERT_TRUE(store.get("k", blob));
    EXPECT_EQ(blob, "defgh");
    EXPECT_EQ(store.entries(), 1u);
    EXPECT_EQ(store.bytes(), 5u);

    store.clear();
    EXPECT_FALSE(store.get("k", blob));
    EXPECT_EQ(store.bytes(), 0u);
}

TEST_F(StoreTest, DiskStoreRoundTripsAcrossInstances)
{
    std::string blob;
    {
        DiskStore store(root_);
        EXPECT_FALSE(store.get("key-a", blob));
        store.put("key-a", "payload-a");
        store.put("key-b", std::string("\x00\x01\xff", 3));
    }
    DiskStore reopened(root_); // a new process, same root
    ASSERT_TRUE(reopened.get("key-a", blob));
    EXPECT_EQ(blob, "payload-a");
    ASSERT_TRUE(reopened.get("key-b", blob));
    EXPECT_EQ(blob, std::string("\x00\x01\xff", 3));
    EXPECT_EQ(reopened.entries(), 2u);
    EXPECT_GT(reopened.bytes(), 0u);
    EXPECT_EQ(reopened.root(), root_);
}

TEST_F(StoreTest, DiskStoreCorruptEntriesReadAsMisses)
{
    DiskStore store(root_);
    store.put("key", "a perfectly good payload");

    corruptFile(store.pathFor("key"));
    std::string blob;
    EXPECT_FALSE(store.get("key", blob));

    // Truncation is also a miss, never a short read.
    store.put("key", "a perfectly good payload");
    fs::resize_file(store.pathFor("key"), 10);
    EXPECT_FALSE(store.get("key", blob));

    // And an entry healthy again reads fine.
    store.put("key", "recomputed");
    ASSERT_TRUE(store.get("key", blob));
    EXPECT_EQ(blob, "recomputed");
}

TEST_F(StoreTest, DiskStoreDetectsFileNameCollisions)
{
    // Simulate two keys whose 64-bit hashes collide by planting key
    // A's file at key B's path: the stored key disagrees with the
    // requested one, so B must miss (and A's own path still hits).
    DiskStore store(root_);
    store.put("key-a", "payload-a");
    fs::copy_file(store.pathFor("key-a"), store.pathFor("key-b"));

    std::string blob;
    EXPECT_FALSE(store.get("key-b", blob));
    ASSERT_TRUE(store.get("key-a", blob));
    EXPECT_EQ(blob, "payload-a");
}

// ------------------------------------------------- lifecycle and GC

namespace
{

/** Read a whole file ("" when missing). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** Push a file's mtime `seconds` into the past. */
void
ageFile(const std::string &path, std::int64_t seconds)
{
    fs::last_write_time(path, fs::last_write_time(path) -
                                  std::chrono::seconds(seconds));
}

} // namespace

TEST_F(StoreTest, ProvenanceSidecarSitsBesideItsEntry)
{
    DiskStore store(root_);
    store.put("key-a", "payload-a", "type=test name=a");
    store.put("key-b", "payload-b");

    // Sidecars are metadata, not entries: the counters ignore them.
    EXPECT_EQ(store.entries(), 2u);
    EXPECT_EQ(store.bytes(), fs::file_size(store.pathFor("key-a")) +
                                 fs::file_size(store.pathFor("key-b")));

    // Only key-a carries a provenance sidecar, readable by anything.
    std::string meta = slurp(store.sidecarPathFor("key-a"));
    EXPECT_NE(meta.find("type=test name=a"), std::string::npos);
    EXPECT_NE(meta.find("key_fnv1a="), std::string::npos);
    EXPECT_FALSE(fs::exists(store.sidecarPathFor("key-b")));

    std::string blob;
    ASSERT_TRUE(store.get("key-a", blob));
    EXPECT_EQ(blob, "payload-a");
    ASSERT_TRUE(store.get("key-b", blob));
    EXPECT_EQ(blob, "payload-b");
}

TEST_F(StoreTest, TempOrphansAreInvisibleAndSwept)
{
    DiskStore store(root_);
    store.put("key", "payload");
    std::size_t entries_before = store.entries();
    std::uint64_t bytes_before = store.bytes();

    // A writer that died between temp-write and rename (the temp name
    // pattern put() uses), plus a foreign file that merely looks
    // temp-ish — the sweep must only ever unlink the former.
    std::string orphan =
        store.pathFor("other-key") + ".tmp.99999.7";
    std::ofstream(orphan, std::ios::binary) << "half-written entry";
    ASSERT_TRUE(fs::exists(orphan));
    std::string foreign = root_ + "/results.tmp.tar.gz";
    std::ofstream(foreign, std::ios::binary) << "not ours";

    // Orphans are not entries: counts and bytes are unaffected.
    EXPECT_EQ(store.entries(), entries_before);
    EXPECT_EQ(store.bytes(), bytes_before);

    // A young temp file survives an aged sweep; a stale one does not.
    DiskStore::PruneOptions gentle;
    gentle.tmpAgeSeconds = 3600;
    EXPECT_EQ(store.prune(gentle).tmpsRemoved, 0u);
    ASSERT_TRUE(fs::exists(orphan));

    DiskStore::PruneOptions sweep;
    sweep.tmpAgeSeconds = 0;
    DiskStore::PruneReport report = store.prune(sweep);
    EXPECT_EQ(report.tmpsRemoved, 1u);
    EXPECT_EQ(report.entriesRemoved, 0u);
    EXPECT_EQ(report.entriesKept, 1u);
    EXPECT_FALSE(fs::exists(orphan));
    EXPECT_TRUE(fs::exists(foreign)); // never touch foreign files
    std::string blob;
    ASSERT_TRUE(store.get("key", blob)); // the real entry is intact
    EXPECT_EQ(blob, "payload");
}

TEST_F(StoreTest, PruneEvictsByAgeThenByScoreToTheByteBudget)
{
    // Equal sizes: the (age+1) x bytes score reduces to oldest-first.
    DiskStore store(root_);
    store.put("key-a", std::string(100, 'a'), "name=a");
    store.put("key-b", std::string(100, 'b'), "name=b");
    store.put("key-c", std::string(100, 'c'), "name=c");
    ageFile(store.pathFor("key-a"), 5000);
    ageFile(store.pathFor("key-b"), 3000);
    std::uint64_t total = store.bytes();
    std::uint64_t each = total / 3;

    // Age limit: only key-a is older than 4000 s.
    DiskStore::PruneOptions by_age;
    by_age.maxAgeSeconds = 4000;
    DiskStore::PruneReport first = store.prune(by_age);
    EXPECT_EQ(first.entriesRemoved, 1u);
    EXPECT_EQ(first.sidecarsRemoved, 1u);
    std::string blob;
    EXPECT_FALSE(store.get("key-a", blob));
    EXPECT_FALSE(fs::exists(store.sidecarPathFor("key-a")));
    ASSERT_TRUE(store.get("key-b", blob));

    // Byte budget for one entry: the older key-b goes, key-c stays.
    DiskStore::PruneOptions by_size;
    by_size.maxBytes = each + each / 2;
    DiskStore::PruneReport second = store.prune(by_size);
    EXPECT_EQ(second.entriesRemoved, 1u);
    EXPECT_EQ(second.entriesKept, 1u);
    EXPECT_LE(second.bytesKept, by_size.maxBytes);
    EXPECT_FALSE(store.get("key-b", blob));
    ASSERT_TRUE(store.get("key-c", blob));
    EXPECT_EQ(blob, std::string(100, 'c'));
    EXPECT_LE(store.bytes(), by_size.maxBytes);
}

TEST_F(StoreTest, PruneSizeBudgetDoesNotStarveSmallEntries)
{
    // A mixed-size store: one bulky checkpoint-sized entry written
    // moments ago next to several small, slightly older stats
    // entries. Under pure oldest-first eviction the small entries
    // would all die before the big one is even considered; the
    // (age+1) x bytes score charges the big entry for the space it
    // holds, so the budget is met by evicting it and every small
    // entry survives.
    DiskStore store(root_);
    const int SMALL = 6;
    std::uint64_t small_bytes = 0;
    for (int i = 0; i < SMALL; ++i) {
        std::string key = "small-" + std::to_string(i);
        store.put(key, std::string(200, static_cast<char>('a' + i)));
        // Slightly older, but tiny: (60+1) x ~300 B stays far below
        // the big entry's 1 x 64 KiB score.
        ageFile(store.pathFor(key), 60);
    }
    small_bytes = store.bytes();
    store.put("big-checkpoint", std::string(64 * 1024, 'C'));
    ASSERT_GT(store.bytes(), small_bytes);

    DiskStore::PruneOptions options;
    options.maxBytes = small_bytes; // the small set alone fits
    DiskStore::PruneReport report = store.prune(options);

    EXPECT_EQ(report.entriesRemoved, 1u);
    EXPECT_EQ(report.entriesKept, static_cast<std::size_t>(SMALL));
    std::string blob;
    EXPECT_FALSE(store.get("big-checkpoint", blob));
    for (int i = 0; i < SMALL; ++i) {
        ASSERT_TRUE(store.get("small-" + std::to_string(i), blob));
        EXPECT_EQ(blob.size(), 200u);
    }
    EXPECT_LE(store.bytes(), options.maxBytes);
}

TEST_F(StoreTest, ConcurrentPruneRacingPutMissesAndHealsOnly)
{
    // One thread keeps writing, one keeps evicting everything, one
    // keeps reading: a reader must see either a miss or the exact
    // payload of its key — never a wrong or torn value. (Temp sweeps
    // stay age-gated, as in production, so live writes are never hit.)
    DiskStore store(root_);
    auto payloadOf = [](int i) {
        return std::string("payload-") + std::to_string(i) +
               std::string(64, static_cast<char>('a' + i % 26));
    };
    // Each thread keeps going until all three have done ROUNDS
    // operations of their own, so each thread's first ROUNDS
    // operations race the other two however fast the host is.
    constexpr int ROUNDS = 2000;
    std::atomic<int> finished{0};
    std::atomic<int> wrong{0};
    auto race = [&](const std::function<void(int)> &op) {
        for (int n = 0;; ++n) {
            if (n == ROUNDS)
                ++finished;
            if (n >= ROUNDS && finished.load() == 3)
                return;
            op(n);
        }
    };

    std::thread writer(race, [&](int n) {
        store.put("key-" + std::to_string(n % 8), payloadOf(n % 8));
    });
    std::thread pruner(race, [&](int) {
        DiskStore::PruneOptions evict_all;
        evict_all.maxBytes = 1; // evict every entry seen
        store.prune(evict_all);
    });
    std::thread reader(race, [&](int n) {
        std::string blob;
        if (store.get("key-" + std::to_string(n % 8), blob) &&
            blob != payloadOf(n % 8))
            ++wrong;
    });
    writer.join();
    pruner.join();
    reader.join();
    EXPECT_EQ(wrong.load(), 0);

    // The store heals: a final put is readable and counted.
    store.put("key-0", payloadOf(0));
    std::string blob;
    ASSERT_TRUE(store.get("key-0", blob));
    EXPECT_EQ(blob, payloadOf(0));
}

// ------------------------------------------------------ layered cache

TEST_F(StoreTest, WarmDiskStoreServesAColdProcessWithZeroSimulations)
{
    ExperimentSpec spec = tinySpec();

    ArtifactCache cold;
    SimStats first = cold.getOrRun(spec);
    EXPECT_EQ(cold.simulationsRun(), 1u);
    EXPECT_EQ(cold.diskHits(), 0u);
    EXPECT_EQ(cold.diskEntries(), 2u); // stats + warm-up checkpoint

    // An independent cache over the same root is a new process: the
    // artifact comes back from disk, bit-identical, with no
    // simulation, and promotion means the second request in the warm
    // process never re-reads disk.
    ArtifactCache warm;
    SimStats second = warm.getOrRun(spec);
    EXPECT_EQ(warm.simulationsRun(), 0u);
    EXPECT_EQ(warm.diskHits(), 1u);
    EXPECT_EQ(warm.hits(), 1u);
    warm.getOrRun(spec);
    EXPECT_EQ(warm.diskHits(), 1u); // memory layer, not disk
    EXPECT_EQ(warm.hits(), 2u);

    EXPECT_EQ(first.time, second.time);
    EXPECT_EQ(first.chipEnergy, second.chipEnergy);
    EXPECT_EQ(first.feCycles, second.feCycles);
    EXPECT_EQ(first.domainEnergy, second.domainEnergy);
}

TEST_F(StoreTest, CorruptDiskEntryMissesAndReruns)
{
    ExperimentSpec spec = tinySpec();

    ArtifactCache first;
    SimStats reference = first.getOrRun(spec);
    corruptFile(DiskStore(root_).pathFor(spec.cacheKey()));

    ArtifactCache rerun;
    SimStats healed = rerun.getOrRun(spec);
    EXPECT_EQ(rerun.simulationsRun(), 1u); // miss: re-simulated
    EXPECT_EQ(rerun.diskHits(), 1u); // from the stored warm-up
    EXPECT_EQ(healed.time, reference.time);
    EXPECT_EQ(healed.chipEnergy, reference.chipEnergy);

    // The rerun healed the entry: the next process hits again.
    ArtifactCache after;
    after.getOrRun(spec);
    EXPECT_EQ(after.simulationsRun(), 0u);
    EXPECT_EQ(after.diskHits(), 1u);
}

TEST_F(StoreTest, VersionMismatchedEntryMissesAndReruns)
{
    ExperimentSpec spec = tinySpec();

    ArtifactCache first;
    SimStats reference = first.getOrRun(spec);

    // Rewrite the entry as a valid store file whose artifact blob
    // carries a bumped version: the envelope reads fine, the typed
    // decode refuses, and the cache recomputes.
    std::string blob;
    {
        DiskStore store(root_);
        ASSERT_TRUE(store.get(spec.cacheKey(), blob));
        std::size_t version_at =
            sizeof(std::uint64_t) + std::string("sim_stats").size();
        blob[version_at] = 9;
        store.put(spec.cacheKey(), blob);
    }

    ArtifactCache rerun;
    SimStats healed = rerun.getOrRun(spec);
    EXPECT_EQ(rerun.simulationsRun(), 1u);
    EXPECT_EQ(rerun.diskHits(), 1u); // from the stored warm-up
    EXPECT_EQ(healed.time, reference.time);
}

TEST_F(StoreTest, ProfilingPassYieldsBothArtifactsFromOneSimulation)
{
    ProfileSpec spec;
    spec.benchmark = "gsm";
    spec.config = tinySpec().config;

    ArtifactCache cold;
    auto profile = cold.getOrRun(spec);
    SimStats stats = cold.getOrRun(spec.experimentSpec());
    EXPECT_FALSE(profile.empty());
    EXPECT_EQ(cold.simulationsRun(), 1u); // the pair cost one run
    EXPECT_EQ(cold.diskEntries(), 3u);    // both + the warm-up

    // A cold process finds both on disk.
    ArtifactCache warm;
    auto profile2 = warm.getOrRun(spec);
    SimStats stats2 = warm.getOrRun(spec.experimentSpec());
    EXPECT_EQ(warm.simulationsRun(), 0u);
    EXPECT_EQ(warm.diskHits(), 2u);
    ASSERT_EQ(profile2.size(), profile.size());
    for (std::size_t i = 0; i < profile.size(); ++i) {
        EXPECT_EQ(profile2[i].instructions, profile[i].instructions);
        EXPECT_EQ(profile2[i].ipc, profile[i].ipc);
        EXPECT_EQ(profile2[i].queueUtilization,
                  profile[i].queueUtilization);
    }
    EXPECT_EQ(stats2.time, stats.time);
    EXPECT_EQ(stats2.chipEnergy, stats.chipEnergy);
}

TEST_F(StoreTest, OfflineSearchResultPersistsAcrossProcesses)
{
    // Through the singleton (Runner resolves via instance()): warm
    // disk must serve the whole search — result and probes — with
    // zero simulations after a clear() "process restart".
    ArtifactCache &cache = ArtifactCache::instance();
    cache.clear();
    cache.detachDiskStore();

    RunnerConfig config = tinySpec().config;
    Runner runner(config);
    std::vector<IntervalProfile> profile;
    SimStats mcd = runner.runMcdBaseline("gsm", &profile);
    OfflineResult cold =
        runner.runOfflineDynamic("gsm", 0.05, mcd, profile);
    EXPECT_GT(cache.simulationsRun(), 0u);

    cache.clear(); // cold process, warm disk
    std::vector<IntervalProfile> profile2;
    SimStats mcd2 = runner.runMcdBaseline("gsm", &profile2);
    OfflineResult warm =
        runner.runOfflineDynamic("gsm", 0.05, mcd2, profile2);
    EXPECT_EQ(cache.simulationsRun(), 0u);
    EXPECT_GT(cache.diskHits(), 0u);
    EXPECT_EQ(warm.margin, cold.margin);
    EXPECT_EQ(warm.achievedDeg, cold.achievedDeg);
    EXPECT_EQ(warm.stats.time, cold.stats.time);
    EXPECT_EQ(mcd2.time, mcd.time);

    cache.clear();
    cache.detachDiskStore();
}

TEST_F(StoreTest, CacheWritesProvenanceSidecars)
{
    ExperimentSpec spec = tinySpec();
    ArtifactCache cache;
    cache.getOrRun(spec);

    DiskStore store(root_);
    std::string meta = slurp(store.sidecarPathFor(spec.cacheKey()));
    EXPECT_NE(meta.find("type=experiment"), std::string::npos);
    EXPECT_NE(meta.find("benchmark=gsm"), std::string::npos);
    EXPECT_NE(meta.find("seed="), std::string::npos);

    // The run's warm-up checkpoint carries one too.
    CheckpointSpec boundary;
    boundary.benchmark = spec.benchmark;
    boundary.at = spec.config.warmup;
    boundary.config = spec.config;
    meta = slurp(store.sidecarPathFor(boundary.cacheKey()));
    EXPECT_NE(meta.find("type=checkpoint"), std::string::npos);
    // Sidecars are metadata, not entries: the counters ignore them.
    EXPECT_EQ(store.entries(), 2u);
}

TEST_F(StoreTest, MidProcessStoreRootSwapIsFatal)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    ArtifactCache cache;
    cache.attachDiskStore(root_);
    cache.attachDiskStore(root_); // same root: a no-op
    EXPECT_EQ(cache.storeRoot(), root_);
    EXPECT_EXIT(cache.attachDiskStore(root_ + ".elsewhere"),
                ::testing::ExitedWithCode(1),
                "artifact store root changed mid-process");

    // Specs are the production path into attachDiskStore: a spec
    // naming a different store must die the same way, not strand the
    // attached root's artifacts.
    ExperimentSpec conflicting = tinySpec();
    conflicting.config.store = root_ + ".elsewhere";
    EXPECT_EXIT(cache.getOrRun(conflicting),
                ::testing::ExitedWithCode(1),
                "artifact store root changed mid-process");

    // detach-then-attach (the sanctioned test idiom) still works.
    cache.detachDiskStore();
    cache.attachDiskStore(root_);
    EXPECT_EQ(cache.storeRoot(), root_);
}

TEST_F(StoreTest, GlobalMatchResultPersistsAcrossProcesses)
{
    ArtifactCache &cache = ArtifactCache::instance();
    cache.clear();
    cache.detachDiskStore();

    RunnerConfig config = tinySpec().config;
    Runner runner(config);
    ExperimentSpec full_speed = tinySpec();
    full_speed.mode = ClockMode::Synchronous;
    SimStats sync = cache.getOrRun(full_speed);
    Tick target = static_cast<Tick>(
        static_cast<double>(sync.time) * 1.05);
    GlobalResult cold = runner.runGlobalMatching("gsm", target);
    EXPECT_GT(cache.simulationsRun(), 0u);

    cache.clear();
    GlobalResult warm = runner.runGlobalMatching("gsm", target);
    EXPECT_EQ(cache.simulationsRun(), 0u);
    EXPECT_EQ(warm.freq, cold.freq);
    EXPECT_EQ(warm.stats.time, cold.stats.time);

    cache.clear();
    cache.detachDiskStore();
}

} // namespace
} // namespace mcd
