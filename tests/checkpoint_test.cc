/**
 * @file
 * Tests for warm-up checkpoints, core to harness: exact
 * save/restore/resume at the Simulator level, the SimCheckpoint
 * artifact encoding (round trips and decode rejection), stale or
 * corrupt store entries reading as misses that heal, the bit-identity
 * contract of the Runner's fast-forward path (checkpointed and
 * straight-through runs produce byte-identical SimStats, on paper
 * apps and adversarial synthetics alike), one warm-up per benchmark
 * shared across controllers, private caches keeping their nested
 * requests, the compact format (size, byte stability), decoders
 * rejecting out-of-range indices, seeded fuzzing of snapshots, of
 * re-digested bodies and of the compact decoders, and the rejection
 * of snapshots in older layouts.
 */

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include <unistd.h>

#include "common/random.hh"
#include "common/serial.hh"
#include "control/attack_decay.hh"
#include "control/controller_registry.hh"
#include "core/regfile.hh"
#include "core/simulator.hh"
#include "harness/artifact_store.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "memory/cache.hh"
#include "predictor/branch_predictor.hh"
#include "workload/benchmark_factory.hh"

namespace mcd
{
namespace
{

namespace fs = std::filesystem;

void
expectStatsIdentical(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.feCycles, b.feCycles);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.chipEnergy, b.chipEnergy); // exact, not NEAR
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.epi, b.epi);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.domainEnergy, b.domainEnergy);
}

RunnerConfig
tinyConfig()
{
    RunnerConfig config;
    config.instructions = 4000;
    config.warmup = 3000;
    config.intervalInstructions = 500;
    return config;
}

/** The body of a Simulator::saveCheckpoint blob (format version,
 *  digest, length-prefixed body). */
std::string
checkpointBody(const std::string &snapshot)
{
    serial::Reader in(snapshot);
    in.readU64(); // format
    in.readU64(); // digest
    std::string body = in.readString();
    EXPECT_TRUE(in.atEnd());
    return body;
}

/** `body` in `snapshot`'s format under its own digest, so a restore
 *  gets past the digest to the machine decoders. */
std::string
rewrap(const std::string &snapshot, const std::string &body)
{
    serial::Reader in(snapshot);
    std::string out;
    serial::appendU64(out, in.readU64());
    serial::appendU64(out, serial::fnv1a(body));
    serial::appendString(out, body);
    return out;
}

class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        root_ = (fs::temp_directory_path() /
                 (std::string("mcd_checkpoint_test.") + info->name() +
                  "." + std::to_string(::getpid())))
                    .string();
        fs::remove_all(root_);
        // The Runner resolves checkpoints through the process-wide
        // cache; start (and leave) it empty and memory-only.
        ArtifactCache::instance().clear();
        ArtifactCache::instance().detachDiskStore();
    }

    void
    TearDown() override
    {
        ArtifactCache::instance().clear();
        ArtifactCache::instance().detachDiskStore();
        fs::remove_all(root_);
    }

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

    CheckpointSpec
    tinyCheckpointSpec(std::uint64_t at) const
    {
        CheckpointSpec spec;
        spec.benchmark = "gsm";
        spec.at = at;
        spec.config = tinyConfig();
        return spec;
    }

    ExperimentSpec
    tinyExperimentSpec(const std::string &bench,
                       const ControllerSpec &controller) const
    {
        ExperimentSpec spec;
        spec.benchmark = bench;
        spec.controller = controller;
        spec.config = tinyConfig();
        return spec;
    }

    std::string root_;
};

// ------------------------------------------------------ core save/load

TEST(SimulatorCheckpoint, RestoreResumesBitIdentically)
{
    auto straight = [] {
        auto workload = BenchmarkFactory::create("gsm", 100000);
        Simulator sim(SimConfig{}, *workload);
        sim.runTo(12000);
        return sim.stats();
    };

    std::string snapshot;
    {
        auto workload = BenchmarkFactory::create("gsm", 100000);
        Simulator sim(SimConfig{}, *workload);
        sim.runTo(7000);
        sim.saveCheckpoint(snapshot);
    }

    auto workload = BenchmarkFactory::create("gsm", 100000);
    Simulator sim(SimConfig{}, *workload);
    serial::Reader in(snapshot);
    ASSERT_TRUE(sim.restoreCheckpoint(in));
    EXPECT_GE(sim.committed(), 7000u);
    sim.runTo(12000);

    expectStatsIdentical(straight(), sim.stats());
}

TEST(SimulatorCheckpoint, RestoreRejectsWrongFormatAndTruncation)
{
    auto workload = BenchmarkFactory::create("gsm", 100000);
    Simulator sim(SimConfig{}, *workload);
    sim.runTo(2000);
    std::string snapshot;
    sim.saveCheckpoint(snapshot);

    auto fresh = BenchmarkFactory::create("gsm", 100000);
    Simulator target(SimConfig{}, *fresh);

    // Future format version (the leading u64) must read as a failure.
    std::string bumped = snapshot;
    bumped[0] = static_cast<char>(bumped[0] + 1);
    serial::Reader bad_version(bumped);
    EXPECT_FALSE(target.restoreCheckpoint(bad_version));

    // So must the version-1 layout, whose countdown fields would
    // restore as wrong deadlines, and the version-2 layout (dense
    // caches and tables, no digest).
    ASSERT_EQ(3, snapshot[0]);
    for (char old : {1, 2}) {
        std::string stale = snapshot;
        stale[0] = old;
        serial::Reader old_version(stale);
        EXPECT_FALSE(target.restoreCheckpoint(old_version)) << int(old);
    }

    // Truncation latches the reader and must fail, not zero-fill.
    std::string cut = snapshot.substr(0, snapshot.size() / 2);
    serial::Reader truncated(cut);
    EXPECT_FALSE(target.restoreCheckpoint(truncated));
}

TEST(SimulatorCheckpoint, RestoreRejectsCorruptClockState)
{
    // A checkpoint whose clock bytes carry an impossible frequency or
    // edge order is rejected before any period is derived from it.
    for (ClockMode mode : {ClockMode::Mcd, ClockMode::Synchronous}) {
        SimConfig config;
        config.clocks.mode = mode;
        auto workload = BenchmarkFactory::create("mcf", 100000);
        Simulator sim(config, *workload);
        sim.runTo(2000);
        std::string snapshot;
        sim.saveCheckpoint(snapshot);
        std::string clocks;
        sim.clocks().saveState(clocks);
        // ClockSystem::saveState: a u64 clock count, then per clock
        // cur_freq, target_freq, nominal, next_edge, last_edge, ...
        // Each corrupt body is re-digested, so the clock decoder is
        // what rejects it.
        std::string body = checkpointBody(snapshot);
        std::size_t at = body.find(clocks);
        ASSERT_NE(std::string::npos, at);
        std::size_t first_clock = at + 8;

        auto restores = [&](const std::string &blob) {
            auto fresh = BenchmarkFactory::create("mcf", 100000);
            Simulator target(config, *fresh);
            serial::Reader in(blob);
            return target.restoreCheckpoint(in);
        };
        ASSERT_TRUE(restores(snapshot));
        ASSERT_TRUE(restores(rewrap(snapshot, body)));

        auto with = [&](std::size_t offset, double value) {
            std::string bytes;
            serial::appendDouble(bytes, value);
            std::string corrupt = body;
            corrupt.replace(first_clock + offset, 8, bytes);
            return rewrap(snapshot, corrupt);
        };
        for (double bad : {0.0, -2.0e9, 5.0e9,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
            EXPECT_FALSE(restores(with(0, bad))) << bad;
            EXPECT_FALSE(restores(with(8, bad))) << bad;
        }
        std::string backwards = body;
        std::string last_edge = body.substr(first_clock + 32, 8);
        backwards.replace(first_clock + 24, 8, last_edge);
        EXPECT_FALSE(restores(rewrap(snapshot, backwards)));
    }
}

TEST(SimulatorCheckpoint, RestoreRejectsOutOfRangeMachineFields)
{
    // Re-digested bodies with one window field out of range: each is
    // rejected before the scheduler rebuild or a run could index with
    // it. SimState leads the body: window head, next sequence number,
    // ROB head, then 19 fixed-width fields per window entry, then the
    // six queues (a count, then sequence numbers).
    auto workload = BenchmarkFactory::create("gsm", 100000);
    Simulator sim(SimConfig{}, *workload);
    sim.runTo(3000);
    std::string snapshot;
    sim.saveCheckpoint(snapshot);
    std::string body = checkpointBody(snapshot);
    serial::Reader header(body);
    std::uint64_t head = header.readU64();
    std::uint64_t next = header.readU64();
    ASSERT_GT(next, head);
    constexpr std::size_t ENTRY = 19 * 8;
    auto field = [](int k) { return std::size_t{24} + 8 * k; };
    auto word = [&](std::size_t at) {
        std::string bytes = body.substr(at, 8);
        serial::Reader in(bytes);
        return static_cast<std::int64_t>(in.readU64());
    };

    // The first non-empty queue's first entry.
    std::size_t queue = 24 + (next - head) * ENTRY;
    for (int q = 0; q < 5 && word(queue) == 0; ++q)
        queue += 8;
    ASSERT_GT(word(queue), 0);
    std::size_t queue_entry = queue + 8;

    auto restores = [&](std::size_t at, std::int64_t value) {
        std::string corrupt = body;
        std::string bytes;
        serial::appendI64(bytes, value);
        corrupt.replace(at, 8, bytes);
        auto fresh = BenchmarkFactory::create("gsm", 100000);
        Simulator target(SimConfig{}, *fresh);
        std::string blob = rewrap(snapshot, corrupt);
        serial::Reader in(blob);
        return target.restoreCheckpoint(in);
    };
    ASSERT_TRUE(restores(field(1), word(field(1))));
    ASSERT_TRUE(restores(queue_entry, word(queue_entry)));

    EXPECT_FALSE(restores(field(1), 99));            // op class
    EXPECT_FALSE(restores(field(2), NUM_ARCH_REGS)); // source register
    EXPECT_FALSE(restores(field(4), -2));            // destination
    EXPECT_FALSE(restores(field(8), static_cast<std::int64_t>(head + 1)));
    EXPECT_FALSE(restores(field(9), domainIndex(DomainId::FrontEnd)));
    EXPECT_FALSE(restores(field(9), NUM_DOMAINS));
    EXPECT_FALSE(restores(field(11), 100000));       // physical source
    EXPECT_FALSE(restores(field(11), -2));
    EXPECT_FALSE(restores(queue_entry, static_cast<std::int64_t>(next)));
    EXPECT_FALSE(
        restores(queue_entry, static_cast<std::int64_t>(head) - 1));
}

// ------------------------------------------------- artifact encoding

TEST(CheckpointArtifact, RoundTripIsExact)
{
    SimCheckpoint ckpt;
    ckpt.atInstructions = 123456789;
    ckpt.state = std::string("\x00\x01machine\xff bytes\x00", 16);

    SimCheckpoint back;
    ASSERT_TRUE(decodeArtifact(encodeArtifact(ckpt), back));
    EXPECT_EQ(back.atInstructions, ckpt.atInstructions);
    EXPECT_EQ(back.state, ckpt.state);
}

TEST(CheckpointArtifact, DecodeRejectsVersionTypeAndTruncation)
{
    SimCheckpoint ckpt;
    ckpt.atInstructions = 42;
    ckpt.state = "snapshot-bytes";
    std::string blob = encodeArtifact(ckpt);
    SimCheckpoint back;

    // Change the artifact version (the u64 right after the
    // length-prefixed type name): future blobs and version-1 blobs
    // (countdown layout) read as misses.
    std::size_t version_at =
        sizeof(std::uint64_t) + std::string("sim_checkpoint").size();
    ASSERT_EQ(2, blob[version_at]);
    for (char version : {3, 1}) {
        std::string bumped = blob;
        bumped[version_at] = version;
        EXPECT_FALSE(decodeArtifact(bumped, back)) << int(version);
    }

    // A checkpoint blob must not decode as another artifact type,
    // and vice versa.
    SimStats stats;
    EXPECT_FALSE(decodeArtifact(blob, stats));
    EXPECT_FALSE(decodeArtifact(encodeArtifact(SimStats{}), back));

    EXPECT_FALSE(decodeArtifact(blob.substr(0, blob.size() - 1), back));
    EXPECT_FALSE(decodeArtifact(blob + '\0', back));
    EXPECT_FALSE(decodeArtifact(std::string(), back));
}

// --------------------------------------------------- artifact builds

TEST_F(CheckpointTest, CorruptStoreEntryMissesAndHeals)
{
    CheckpointSpec spec = tinyCheckpointSpec(2000);
    spec.config.store = root_;

    ArtifactCache first;
    SimCheckpoint reference = first.getOrRun(spec);
    EXPECT_EQ(first.simulationsRun(), 1u);
    corruptFile(DiskStore(root_).pathFor(spec.cacheKey()));

    ArtifactCache rerun;
    SimCheckpoint healed = rerun.getOrRun(spec);
    EXPECT_EQ(rerun.simulationsRun(), 1u); // miss: re-simulated
    EXPECT_EQ(rerun.diskHits(), 0u);
    EXPECT_EQ(healed.atInstructions, reference.atInstructions);
    EXPECT_EQ(healed.state, reference.state);

    // The rerun healed the entry: the next process hits again.
    ArtifactCache after;
    after.getOrRun(spec);
    EXPECT_EQ(after.simulationsRun(), 0u);
    EXPECT_EQ(after.diskHits(), 1u);
}

// ------------------------------------------------------- bit identity

/** The boundary checkpoint of a tinyConfig() run of `bench` (a hit
 *  once a run has built it). */
SimCheckpoint
warmupCheckpoint(ArtifactCache &cache, const std::string &bench)
{
    CheckpointSpec spec;
    spec.benchmark = bench;
    spec.at = tinyConfig().warmup;
    spec.config = tinyConfig();
    return cache.getOrRun(spec);
}

/** `spec` simulated straight through by hand, with no harness: an
 *  uncontrolled warm-up, then the controller over the window. */
SimStats
straightRun(const ExperimentSpec &spec)
{
    const RunnerConfig &config = spec.config;
    auto controller =
        ControllerRegistry::instance().create(spec.controller);
    auto workload = BenchmarkFactory::create(
        spec.benchmark, config.instructions + config.warmup);
    Simulator sim(
        makeSimConfig(config, spec.mode, spec.resolvedStartFreq()),
        *workload, nullptr);
    sim.run(config.warmup);
    sim.resetMeasurement();
    sim.engageController(controller.get());
    sim.run(config.instructions);
    return sim.stats();
}

TEST_F(CheckpointTest, RunBuildsTheSameCheckpointInPlace)
{
    // The first run to miss snapshots its own machine at the boundary;
    // those bytes must equal a standalone build of the same spec.
    ExperimentSpec spec = tinyExperimentSpec("gsm", ControllerSpec{});
    ArtifactCache run_cache;
    run_cache.getOrRun(spec);
    SimCheckpoint in_place = warmupCheckpoint(run_cache, "gsm");
    EXPECT_EQ(run_cache.simulationsRun(), 1u); // the hit built nothing

    CheckpointSpec standalone;
    standalone.benchmark = "gsm";
    standalone.at = tinyConfig().warmup;
    standalone.config = tinyConfig();
    ArtifactCache build_cache;
    SimCheckpoint built = build_cache.getOrRun(standalone);
    EXPECT_EQ(build_cache.simulationsRun(), 1u);
    EXPECT_EQ(build_cache.simulatedInstructions(), built.atInstructions);

    EXPECT_EQ(in_place.atInstructions, built.atInstructions);
    EXPECT_EQ(in_place.state, built.state);
}

/** `spec` resolved on a fresh cache that already holds its boundary
 *  checkpoint (built standalone), so the run restores it. */
SimStats
restoredRun(const ExperimentSpec &spec)
{
    CheckpointSpec boundary;
    boundary.benchmark = spec.benchmark;
    boundary.mode = spec.mode;
    boundary.startFreq = spec.startFreq;
    boundary.at = spec.config.warmup;
    boundary.config = spec.config;
    ArtifactCache cache;
    SimCheckpoint ckpt = cache.getOrRun(boundary);
    SimStats stats = cache.getOrRun(spec);
    // Only the measured window was stepped after the restore.
    EXPECT_EQ(cache.simulatedInstructions(),
              ckpt.atInstructions + stats.instructions);
    return stats;
}

TEST_F(CheckpointTest, FastForwardedRunIsBitIdenticalOnPaperApp)
{
    ExperimentSpec spec = tinyExperimentSpec(
        "gsm", attackDecaySpec(AttackDecayConfig{}));
    expectStatsIdentical(straightRun(spec), restoredRun(spec));
}

TEST_F(CheckpointTest, FastForwardedRunIsBitIdenticalOnSynthetic)
{
    // An adversarial synthetic (seeded Markov regime switcher) with
    // an uncontrolled machine: the restore path must reproduce the
    // scenario's internal RNG state exactly, not just the core's.
    ExperimentSpec spec = tinyExperimentSpec(
        "synthetic:markov=8,mem=0.5", ControllerSpec{});
    expectStatsIdentical(straightRun(spec), restoredRun(spec));
}

TEST_F(CheckpointTest, CheckpointsAreSharedAcrossControllers)
{
    // Warm-up runs uncontrolled, so the boundary snapshot built for one
    // controller serves every other variant: the second controller's
    // run simulates only its measured window.
    ExperimentSpec uncontrolled =
        tinyExperimentSpec("gsm", ControllerSpec{});
    ExperimentSpec controlled = tinyExperimentSpec(
        "gsm", attackDecaySpec(AttackDecayConfig{}));

    ArtifactCache cache;
    SimStats first = cache.getOrRun(uncontrolled);
    std::uint64_t cold = cache.simulatedInstructions();
    SimStats second = cache.getOrRun(controlled);
    std::uint64_t resumed = cache.simulatedInstructions() - cold;

    // Cold pays warm-up + measurement; the resumed run pays exactly
    // its measured window.
    const RunnerConfig &config = uncontrolled.config;
    EXPECT_GE(cold, config.warmup + config.instructions);
    EXPECT_EQ(cold, warmupCheckpoint(cache, "gsm").atInstructions +
                        first.instructions);
    EXPECT_EQ(resumed, second.instructions);
    EXPECT_EQ(cache.simulationsRun(), 2u);
}

TEST_F(CheckpointTest, VariantsOfOneBenchmarkWarmUpOnce)
{
    // N controller variants of one benchmark on a fresh cache: one
    // warm-up, N measured windows, and every result byte-identical to
    // a straight harness-free run of the same machine.
    DvfsConfig dvfs;
    std::vector<FrequencyVector> schedule = {
        {dvfs.freqMax, dvfs.freqMin, dvfs.freqMax},
        {dvfs.freqMin, dvfs.freqMax, dvfs.freqMin}};
    ControllerSpec constant;
    constant.name = "constant";
    constant.params["freq"] = 600.0e6;
    ControllerSpec replay;
    replay.name = "schedule";
    replay.schedule = schedule;
    std::vector<ControllerSpec> variants = {
        ControllerSpec{}, attackDecaySpec(AttackDecayConfig{}), constant,
        replay};

    ArtifactCache cache;
    std::uint64_t windows = 0;
    for (const ControllerSpec &controller : variants) {
        ExperimentSpec spec = tinyExperimentSpec("mcf", controller);
        SimStats stats = cache.getOrRun(spec);
        windows += stats.instructions;
        EXPECT_EQ(encodeArtifact(stats),
                  encodeArtifact(straightRun(spec)))
            << controller.name;
    }
    EXPECT_EQ(cache.simulationsRun(), variants.size());
    EXPECT_EQ(cache.simulatedInstructions(),
              warmupCheckpoint(cache, "mcf").atInstructions + windows);
}

TEST_F(CheckpointTest, PrivateCacheKeepsNestedRequestsToItself)
{
    // A private cache resolving an ExperimentSpec builds the warm-up
    // checkpoint in its own layers and counts its own work: the
    // process-wide cache sees no lookup, no store root and no
    // instructions.
    ArtifactCache &global = ArtifactCache::instance();
    std::uint64_t lookups = global.lookups();
    std::uint64_t insns = global.simulatedInstructions();

    ExperimentSpec spec = tinyExperimentSpec("gsm", ControllerSpec{});
    spec.config.store = root_;
    ArtifactCache local;
    SimStats stats = local.getOrRun(spec);

    EXPECT_EQ(global.lookups(), lookups);
    EXPECT_EQ(global.storeRoot(), "");
    EXPECT_EQ(global.simulatedInstructions(), insns);
    EXPECT_EQ(local.lookups(), 2u); // the stats and their warm-up
    EXPECT_EQ(local.diskEntries(), 2u);
    EXPECT_EQ(local.simulatedInstructions(),
              warmupCheckpoint(local, "gsm").atInstructions +
                  stats.instructions);
    EXPECT_GE(local.simulatedInstructions(),
              spec.config.warmup + spec.config.instructions);
}

// ------------------------------------------------------ compact format

TEST(CompactCheckpoint, RegisterDecodersRejectOutOfRangeIndices)
{
    // PhysRegFile: a u64 size, per register (written, write time,
    // producer), then the free-list count and entries.
    PhysRegFile file(8);
    file.markWritten(file.alloc(), 40, DomainId::LoadStore);
    std::string regs;
    file.saveState(regs);
    auto file_loads = [&](std::size_t at, std::int64_t value) {
        std::string bytes = regs;
        std::string word;
        serial::appendI64(word, value);
        bytes.replace(at, 8, word);
        PhysRegFile target(8);
        serial::Reader in(bytes);
        return target.loadState(in);
    };
    std::size_t producer = 8 + 16, free_entry = 8 + 8 * 24 + 8;
    EXPECT_TRUE(file_loads(producer, domainIndex(DomainId::External)));
    EXPECT_FALSE(file_loads(producer, NUM_DOMAINS));
    EXPECT_FALSE(file_loads(producer, -1));
    EXPECT_TRUE(file_loads(free_entry, 7));
    EXPECT_FALSE(file_loads(free_entry, 8));
    EXPECT_FALSE(file_loads(free_entry, -1));

    // RenameMap: one i64 per architectural register; the zero
    // register is unmapped and every other maps into its own file.
    PhysRegFile ints(40), fps(36);
    RenameMap map(ints, fps);
    std::string mapping;
    map.saveState(mapping);
    auto map_loads = [&](int logical, std::int64_t phys) {
        std::string bytes = mapping;
        std::string word;
        serial::appendI64(word, phys);
        bytes.replace(static_cast<std::size_t>(logical) * 8, 8, word);
        PhysRegFile int_file(40), fp_file(36);
        RenameMap target(int_file, fp_file);
        serial::Reader in(bytes);
        return target.loadState(in);
    };
    const int fp = NUM_INT_ARCH_REGS;
    EXPECT_TRUE(map_loads(0, -1));
    EXPECT_FALSE(map_loads(0, 3));
    EXPECT_TRUE(map_loads(1, 39));
    EXPECT_FALSE(map_loads(1, 40));
    EXPECT_FALSE(map_loads(1, -1));
    EXPECT_TRUE(map_loads(fp, 35));
    EXPECT_FALSE(map_loads(fp, 36)); // inside the int file, not the FP
}

TEST(CompactCheckpoint, PaperAppsEncodeSmallAndByteStable)
{
    // A warm machine at 20k instructions: valid lines and changed
    // counters only, so the snapshot stays far below the dense
    // layout's ~780 KB; restoring and re-saving reproduces every byte.
    for (const char *bench : {"gsm", "mcf"}) {
        auto workload = BenchmarkFactory::create(bench, 100000);
        Simulator sim(SimConfig{}, *workload);
        sim.runTo(20000);
        std::string snapshot;
        sim.saveCheckpoint(snapshot);
        EXPECT_LE(snapshot.size(), 100u * 1024) << bench;

        auto fresh = BenchmarkFactory::create(bench, 100000);
        Simulator restored(SimConfig{}, *fresh);
        serial::Reader in(snapshot);
        ASSERT_TRUE(restored.restoreCheckpoint(in)) << bench;
        std::string again;
        restored.saveCheckpoint(again);
        EXPECT_EQ(again, snapshot) << bench;
    }
}

TEST(CompactCheckpoint, CacheDecoderRejectsBadIndices)
{
    CacheConfig config;
    config.sizeBytes = 4096;
    config.associativity = 2;
    Cache cache(config); // 64 lines
    for (std::uint64_t a = 0; a < 20; ++a)
        cache.access(a * 4096 + a * 64, a % 3 == 0);
    std::string good;
    cache.saveState(good);

    auto loads = [&](const std::string &bytes) {
        Cache target(config);
        serial::Reader in(bytes);
        return target.loadState(in) && in.atEnd();
    };
    ASSERT_TRUE(loads(good));

    // Header: varint line count, varint valid count, then per valid
    // line (gap, tag << 1 | dirty, stamp). Every field here is small
    // enough for one varint byte.
    auto with = [](std::vector<std::uint64_t> fields) {
        std::string out;
        for (std::uint64_t f : fields)
            serial::appendVar(out, f);
        return out;
    };
    std::vector<std::uint64_t> tail = {0, 0, 0, 0}; // clock, counters
    auto lines = [&](std::vector<std::uint64_t> head) {
        head.insert(head.end(), tail.begin(), tail.end());
        return with(head);
    };
    EXPECT_TRUE(loads(lines({64, 2, 0, 1, 1, 1, 2, 2})));
    EXPECT_FALSE(loads(lines({63, 0})));              // wrong geometry
    EXPECT_FALSE(loads(lines({64, 65})));             // count > table
    EXPECT_FALSE(loads(lines({64, 1, 64, 1, 1})));    // past the end
    EXPECT_FALSE(loads(lines({64, 2, 63, 1, 1, 0, 1, 2}))); // ditto
    EXPECT_FALSE(loads(good.substr(0, good.size() - 1)));
    // A redundant varint byte is not canonical.
    std::string padded = good;
    padded[0] = static_cast<char>(padded[0] | 0x80);
    padded.insert(1, 1, '\0');
    EXPECT_FALSE(loads(padded));
}

TEST(CompactCheckpoint, PredictorDecoderRejectsBadTables)
{
    BranchPredictor bpred;
    for (std::uint64_t pc = 0x1000; pc < 0x1400; pc += 4) {
        bpred.predict(pc, false, false, pc + 4);
        bpred.update(pc, pc % 12 == 0, pc + 64, false, false);
    }
    std::string good;
    bpred.saveState(good);
    BranchPredictor restored;
    serial::Reader in(good);
    ASSERT_TRUE(restored.loadState(in));
    EXPECT_TRUE(in.atEnd());
    std::string again;
    restored.saveState(again);
    EXPECT_EQ(again, good);

    // A sparse table: varint size, changed count, then per changed
    // entry (gap, value). Counters are 2-bit.
    auto bimodal = [](std::uint64_t size, std::uint64_t changed,
                      std::vector<std::uint64_t> entries) {
        std::string bytes;
        serial::appendVar(bytes, size);
        serial::appendVar(bytes, changed);
        for (std::uint64_t f : entries)
            serial::appendVar(bytes, f);
        BimodalPredictor target(1024);
        serial::Reader reader(bytes);
        return target.loadState(reader) && reader.atEnd();
    };
    EXPECT_TRUE(bimodal(1024, 2, {5, 3, 0, 0}));
    EXPECT_FALSE(bimodal(1024, 1, {5, 4}));        // not a 2-bit value
    EXPECT_FALSE(bimodal(1024, 1, {1024, 1}));     // past the end
    EXPECT_FALSE(bimodal(1024, 2, {1023, 1, 0, 1})); // past the end
    EXPECT_FALSE(bimodal(1024, 1025, {}));         // count > table
    EXPECT_FALSE(bimodal(512, 0, {}));             // wrong geometry
}

TEST(CompactCheckpoint, WorkloadDecoderRejectsOutOfRangePositions)
{
    // Corrupting the synthetic program's position fields must read as
    // a rejection, never as an index next() would take out of range.
    // Every field is a fixed-width u64 in the layout, so one mutation
    // overwrites one 8-byte field.
    auto source = BenchmarkFactory::create("gsm", 100000);
    for (int i = 0; i < 5000; ++i)
        source->next();
    std::string good;
    source->saveState(good);
    auto loads = [&](const std::string &bytes) {
        auto target = BenchmarkFactory::create("gsm", 100000);
        serial::Reader in(bytes);
        return target->loadState(in);
    };
    ASSERT_TRUE(loads(good));
    // The phase index is the sixth field (four RNG words, the
    // instruction count).
    std::size_t phase_at = 5 * 8;
    for (std::int64_t bad : {-1, 1000}) {
        std::string bytes = good;
        std::string field;
        serial::appendI64(field, bad);
        bytes.replace(phase_at, 8, field);
        EXPECT_FALSE(loads(bytes)) << bad;
    }
}

// ---------------------------------------------------------------- fuzz

/** Seeded byte flips (n % 4 != 3) or a truncation (n % 4 == 3). */
std::string
mutate(std::string bytes, Rng &rng, int n)
{
    if (bytes.empty())
        return bytes;
    if (n % 4 == 3) {
        bytes.resize(rng.range(bytes.size()));
        return bytes;
    }
    int flips = 1 + static_cast<int>(rng.range(4));
    for (int f = 0; f < flips; ++f) {
        std::size_t at = rng.range(bytes.size());
        bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.range(255)));
    }
    return bytes;
}

/** A 3000-instruction snapshot of `bench` in `mode`. */
std::string
snapshotOf(const std::string &bench, ClockMode mode)
{
    SimConfig config;
    config.clocks.mode = mode;
    auto workload = BenchmarkFactory::create(bench, 100000);
    Simulator sim(config, *workload);
    sim.runTo(3000);
    std::string snapshot;
    sim.saveCheckpoint(snapshot);
    return snapshot;
}

/** Restore `bytes` into a fresh `bench` machine in `mode`. */
bool
restores(const std::string &bench, ClockMode mode, const std::string &bytes)
{
    SimConfig config;
    config.clocks.mode = mode;
    auto workload = BenchmarkFactory::create(bench, 100000);
    Simulator target(config, *workload);
    serial::Reader in(bytes);
    return target.restoreCheckpoint(in);
}

const char *const FUZZ_BENCHES[] = {"gsm", "mcf",
                                    "synthetic:markov=8,mem=0.5"};

TEST(CheckpointFuzz, CorruptSnapshotsFailTheirDigest)
{
    // Seeded flips and truncations of whole snapshots: the digest (or
    // the header or length before it) rejects every one.
    std::uint64_t seed = 1;
    for (const char *bench : FUZZ_BENCHES)
        for (ClockMode mode : {ClockMode::Mcd, ClockMode::Synchronous}) {
            std::string snapshot = snapshotOf(bench, mode);
            Rng rng(seed++);
            for (int n = 0; n < 48; ++n)
                EXPECT_FALSE(
                    restores(bench, mode, mutate(snapshot, rng, n)))
                    << bench << " mutant " << n;
        }
}

TEST(CheckpointFuzz, RedigestedBodiesRejectOrRestoreInRange)
{
    // Behind the digest: mutate the body and re-digest it, so every
    // machine decoder sees the corrupt bytes. Each mutant is rejected
    // or restores with every index in range — no out-of-bounds access
    // (the asan-ubsan CI job runs this suite). Running a restored
    // mutant on is not part of the contract: a well-indexed but
    // inconsistent machine may stall.
    std::uint64_t seed = 101;
    for (const char *bench : FUZZ_BENCHES)
        for (ClockMode mode : {ClockMode::Mcd, ClockMode::Synchronous}) {
            std::string snapshot = snapshotOf(bench, mode);
            std::string body = checkpointBody(snapshot);
            Rng rng(seed++);
            int restored = 0, rejected = 0;
            for (int n = 0; n < 64; ++n) {
                std::string mutant = rewrap(snapshot, mutate(body, rng, n));
                ++(restores(bench, mode, mutant) ? restored : rejected);
            }
            // Both outcomes occur, or the fuzz reaches no decoder.
            EXPECT_GT(restored, 0) << bench;
            EXPECT_GT(rejected, 0) << bench;
        }
}

/**
 * Behind the digest, the compact decoders themselves: seeded mutants
 * of a cache's, a predictor's and a synthetic program's own bytes
 * either fail to load or load into a structure that keeps working —
 * 2000 accesses, predictions or generated micro-ops, whose registers
 * stay architectural — with no out-of-range index (the asan-ubsan CI
 * job runs this suite).
 */
TEST(CheckpointFuzz, ComponentDecodersRejectOrKeepWorking)
{
    Rng rng(17);
    CacheConfig l1;
    l1.sizeBytes = 16 * 1024;
    Cache cache(l1);
    for (std::uint64_t a = 0; a < 3000; ++a)
        cache.access((a * 2654435761u) % (1u << 20), a % 5 == 0);
    std::string cache_bytes;
    cache.saveState(cache_bytes);

    BranchPredictor bpred;
    for (std::uint64_t pc = 0x4000; pc < 0x6000; pc += 4) {
        bpred.predict(pc, pc % 64 == 0, pc % 96 == 0, pc + 4);
        bpred.update(pc, pc % 8 == 0, pc + 128, pc % 64 == 0,
                     pc % 96 == 0);
    }
    std::string bpred_bytes;
    bpred.saveState(bpred_bytes);

    std::vector<std::pair<std::string, std::string>> programs;
    for (const char *bench : {"gsm", "mcf", "synthetic:markov=8,mem=0.5"}) {
        auto workload = BenchmarkFactory::create(bench, 100000);
        for (int i = 0; i < 3000; ++i)
            workload->next();
        std::string bytes;
        workload->saveState(bytes);
        programs.emplace_back(bench, bytes);
    }

    // Loaded and rejected mutants per decoder: the fuzz must reach
    // both outcomes of each, or it tests nothing.
    std::array<int, 3> loaded{}, rejected{};
    auto tally = [&](int which, bool ok) {
        ++(ok ? loaded : rejected)[static_cast<std::size_t>(which)];
        return ok;
    };
    auto archReg = [](int r) { return r >= NO_REG && r < NUM_ARCH_REGS; };
    for (int n = 0; n < 200; ++n) {
        {
            Cache target(l1);
            std::string bytes = mutate(cache_bytes, rng, n);
            serial::Reader in(bytes);
            if (tally(0, target.loadState(in)))
                for (std::uint64_t a = 0; a < 2000; ++a)
                    target.access(a * 4160, a % 3 == 0);
        }
        {
            BranchPredictor target;
            std::string bytes = mutate(bpred_bytes, rng, n);
            serial::Reader in(bytes);
            if (tally(1, target.loadState(in)))
                for (std::uint64_t pc = 0; pc < 8000; pc += 4) {
                    bool call = pc % 40 == 0, ret = pc % 44 == 0;
                    target.predict(pc, call, ret, pc + 4);
                    target.update(pc, pc % 12 == 0, pc + 32, call, ret);
                }
        }
        for (const auto &[bench, bytes] : programs) {
            auto target = BenchmarkFactory::create(bench, 100000);
            std::string mutant = mutate(bytes, rng, n);
            serial::Reader in(mutant);
            if (!tally(2, target->loadState(in)))
                continue;
            for (int i = 0; i < 2000; ++i) {
                MicroOp op = target->next();
                ASSERT_TRUE(archReg(op.srcA) && archReg(op.srcB) &&
                            archReg(op.dst))
                    << bench << " mutant " << n;
            }
        }
    }
    for (std::size_t which = 0; which < loaded.size(); ++which) {
        EXPECT_GT(loaded[which], 0) << which;
        EXPECT_GT(rejected[which], 0) << which;
    }
}

TEST(CheckpointFuzz, RecentRegisterWindowsHoldEightEntries)
{
    // The synthetic program's state ends with its two recent-register
    // windows (a u64 count, then that many i64 registers; integer then
    // FP) and two i64 destinations. Generation indexes the windows
    // modulo 8, so a window of any other size must be rejected even
    // when every entry in it is a valid register.
    auto source = BenchmarkFactory::create("gsm", 100000);
    for (int i = 0; i < 3000; ++i)
        source->next();
    std::string good;
    source->saveState(good);
    const std::size_t window = 8 + 8 * 8;
    const std::size_t int_at = good.size() - 2 * window - 16;
    const std::size_t fp_at = int_at + window;
    auto resized = [&](std::size_t at, std::uint64_t count, int reg) {
        std::string field;
        serial::appendU64(field, count);
        for (std::uint64_t i = 0; i < count; ++i)
            serial::appendI64(field, reg);
        std::string bytes = good;
        bytes.replace(at, window, field);
        return bytes;
    };
    auto loads = [](const std::string &bytes) {
        auto target = BenchmarkFactory::create("gsm", 100000);
        serial::Reader in(bytes);
        return target->loadState(in) && in.atEnd();
    };
    ASSERT_TRUE(loads(good));
    EXPECT_TRUE(loads(resized(int_at, 8, 1)));
    EXPECT_TRUE(loads(resized(fp_at, 8, NUM_INT_ARCH_REGS)));
    for (std::uint64_t count : {0, 1, 7, 9, 16}) {
        EXPECT_FALSE(loads(resized(int_at, count, 1))) << count;
        EXPECT_FALSE(loads(resized(fp_at, count, NUM_INT_ARCH_REGS)))
            << count;
    }
}

} // namespace
} // namespace mcd
