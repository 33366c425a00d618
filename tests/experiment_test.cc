/**
 * @file
 * Tests for the declarative experiment layer: ExperimentSpec cache
 * keys, the ControllerRegistry, the process-wide ArtifactCache (hit/miss
 * behavior, shared baselines, batch dedup), and the fewer-total-
 * simulations property of figure-style sweeps run in one process.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/serial.hh"
#include "eval/trace.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/parallel_sweep.hh"
#include "workload/scenario_registry.hh"

namespace mcd
{
namespace
{

RunnerConfig
tinyConfig()
{
    RunnerConfig config;
    config.instructions = 4000;
    config.warmup = 1000;
    config.intervalInstructions = 500;
    return config;
}

ExperimentSpec
tinySpec(const std::string &bench,
         const ControllerSpec &controller = ControllerSpec{},
         ClockMode mode = ClockMode::Mcd)
{
    ExperimentSpec spec;
    spec.benchmark = bench;
    spec.mode = mode;
    spec.controller = controller;
    spec.config = tinyConfig();
    return spec;
}

ControllerSpec
profilingSpec()
{
    ControllerSpec spec;
    spec.name = "profiling";
    return spec;
}

class ArtifactCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override { ArtifactCache::instance().clear(); }
    void TearDown() override { ArtifactCache::instance().clear(); }
};

// ---------------------------------------------------------- cache keys

TEST(ExperimentSpec, EqualSpecsShareAKey)
{
    EXPECT_EQ(tinySpec("gsm").cacheKey(), tinySpec("gsm").cacheKey());
}

TEST(ExperimentSpec, KeyDistinguishesEveryAxis)
{
    ExperimentSpec base = tinySpec("gsm");

    EXPECT_NE(base.cacheKey(), tinySpec("adpcm").cacheKey());

    ExperimentSpec mode = base;
    mode.mode = ClockMode::Synchronous;
    EXPECT_NE(base.cacheKey(), mode.cacheKey());

    ExperimentSpec freq = base;
    freq.startFreq = 0.5e9;
    EXPECT_NE(base.cacheKey(), freq.cacheKey());

    ExperimentSpec controller = base;
    controller.controller = attackDecaySpec(AttackDecayConfig{});
    EXPECT_NE(base.cacheKey(), controller.cacheKey());

    ExperimentSpec params = controller;
    params.controller.params["decay"] = 0.0125;
    EXPECT_NE(controller.cacheKey(), params.cacheKey());

    ExperimentSpec seed = base;
    seed.config.clockSeed = 999;
    EXPECT_NE(base.cacheKey(), seed.cacheKey());

    ExperimentSpec window = base;
    window.config.instructions = 8000;
    EXPECT_NE(base.cacheKey(), window.cacheKey());
}

TEST(ExperimentSpec, WorkerCountIsNotPartOfTheKey)
{
    // The determinism contract makes results independent of the
    // worker count, so differing `jobs` must still share a cache slot.
    ExperimentSpec serial = tinySpec("gsm");
    serial.config.jobs = 1;
    ExperimentSpec wide = tinySpec("gsm");
    wide.config.jobs = 8;
    EXPECT_EQ(serial.cacheKey(), wide.cacheKey());
}

TEST(ExperimentSpec, StoreRootIsNotPartOfTheKey)
{
    // Where a result is stored never changes its value, so configs
    // differing only in `store` must share a cache slot.
    ExperimentSpec local = tinySpec("gsm");
    ExperimentSpec stored = tinySpec("gsm");
    stored.config.store = "/tmp/somewhere";
    EXPECT_EQ(local.cacheKey(), stored.cacheKey());
}

TEST(ExperimentSpec, TypedSpecKeyNamespacesNeverCollide)
{
    // Four spec types over one benchmark and config: every pair of
    // keys must differ, including ProfileSpec against the profiling
    // ExperimentSpec of the same run (distinct artifacts of it).
    ProfileSpec profile;
    profile.benchmark = "gsm";
    profile.config = tinyConfig();

    OfflineSearchSpec offline;
    offline.benchmark = "gsm";
    offline.config = tinyConfig();

    GlobalMatchSpec global;
    global.benchmark = "gsm";
    global.config = tinyConfig();

    std::vector<std::string> keys = {
        profile.cacheKey(), profile.experimentSpec().cacheKey(),
        offline.cacheKey(), global.cacheKey(),
        tinySpec("gsm").cacheKey()};
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

TEST(ExperimentSpec, SearchSpecKeysCoverTheirInputs)
{
    OfflineSearchSpec base;
    base.benchmark = "gsm";
    base.config = tinyConfig();

    OfflineSearchSpec target = base;
    target.targetDeg = 0.05;
    EXPECT_NE(base.cacheKey(), target.cacheKey());

    OfflineSearchSpec stats = base;
    stats.mcdBase.time = 123;
    EXPECT_NE(base.cacheKey(), stats.cacheKey());

    OfflineSearchSpec profiled = base;
    profiled.profile.emplace_back();
    EXPECT_NE(base.cacheKey(), profiled.cacheKey());

    GlobalMatchSpec gbase;
    gbase.benchmark = "gsm";
    gbase.config = tinyConfig();
    GlobalMatchSpec gtime = gbase;
    gtime.targetTime = 777;
    EXPECT_NE(gbase.cacheKey(), gtime.cacheKey());
}

TEST(ExperimentSpec, OfflineSearchKeysAreDigestSizedNotPayloadSized)
{
    // Key format v2: the baseline stats and interval profile enter as
    // fixed-width digests, so the key must not grow with the profile
    // (v1 embedded both payloads, producing multi-KB keys duplicated
    // into every store entry).
    OfflineSearchSpec small;
    small.benchmark = "gsm";
    small.config = tinyConfig();

    OfflineSearchSpec big = small;
    big.profile.resize(5000);
    for (std::size_t i = 0; i < big.profile.size(); ++i)
        big.profile[i].instructions = i;

    EXPECT_EQ(small.cacheKey().size(), big.cacheKey().size());
    EXPECT_LT(big.cacheKey().size(), 600u);
    EXPECT_NE(small.cacheKey(), big.cacheKey());
    EXPECT_NE(big.cacheKey().find("offline_search/2"),
              std::string::npos);

    // The digests still cover the payloads: a one-field flip anywhere
    // inside either nested input is a different key.
    OfflineSearchSpec flipped_profile = big;
    flipped_profile.profile[4999].ipc = 1.0e-9;
    EXPECT_NE(big.cacheKey(), flipped_profile.cacheKey());
    OfflineSearchSpec flipped_base = big;
    flipped_base.mcdBase.chipEnergy += 1.0;
    EXPECT_NE(big.cacheKey(), flipped_base.cacheKey());
}

/**
 * The exact key bytes of one spec of each of the six types, pinned as
 * FNV-1a digests. A changed key silently turns every existing store
 * cold, so a key change must be deliberate: bump the namespace or
 * methodology version, then update the literal here.
 */
TEST(ExperimentSpec, CacheKeyDigestsArePinned)
{
    const RunnerConfig config = tinyConfig();

    ExperimentSpec experiment =
        tinySpec("gsm", attackDecaySpec(AttackDecayConfig{}));

    ProfileSpec profile;
    profile.benchmark = "gsm";
    profile.config = config;

    OfflineSearchSpec search;
    search.benchmark = "mcf";
    search.targetDeg = 0.05;
    search.mcdBase.instructions = 4000;
    search.mcdBase.time = 123456789;
    search.mcdBase.chipEnergy = 42.5;
    IntervalProfile interval;
    interval.instructions = 500;
    interval.ipc = 1.25;
    interval.issued[CTL_INT] = 7;
    search.profile = {interval, interval};
    search.config = config;

    GlobalMatchSpec global;
    global.benchmark = "em3d";
    global.targetTime = 987654321;
    global.config = config;

    CheckpointSpec checkpoint;
    checkpoint.benchmark = "adpcm";
    checkpoint.mode = ClockMode::Synchronous;
    checkpoint.startFreq = 0.75e9;
    checkpoint.at = 1000;
    checkpoint.config = config;

    TraceSpec trace;
    trace.benchmark = "epic";
    trace.controller = attackDecaySpec(scaledAttackDecayConfig());
    trace.oracle = {FrequencyVector{1.0e9, 0.5e9, 0.75e9}};
    trace.config = config;

    EXPECT_EQ(serial::fnv1a(experiment.cacheKey()),
              0x942cb2d0e609aabfull);
    EXPECT_EQ(serial::fnv1a(profile.cacheKey()),
              0x79091cba8a8c41f9ull);
    EXPECT_EQ(serial::fnv1a(search.cacheKey()),
              0x3c6e1994f8bd9c24ull);
    EXPECT_EQ(serial::fnv1a(global.cacheKey()),
              0x92b97f47d6e8f310ull);
    EXPECT_EQ(serial::fnv1a(checkpoint.cacheKey()),
              0xac50ad00b4314216ull);
    EXPECT_EQ(serial::fnv1a(trace.cacheKey()),
              0xa68a5433cbd509d1ull);
}

TEST(ExperimentSpec, DescribeNamesTheSpecForProvenance)
{
    ExperimentSpec spec = tinySpec("gsm");
    spec.controller = attackDecaySpec(AttackDecayConfig{});
    std::string text = spec.describe();
    EXPECT_NE(text.find("type=experiment"), std::string::npos);
    EXPECT_NE(text.find("benchmark=gsm"), std::string::npos);
    EXPECT_NE(text.find("controller=attack_decay"), std::string::npos);

    OfflineSearchSpec search;
    search.benchmark = "em3d";
    search.targetDeg = 0.05;
    search.config = tinyConfig();
    EXPECT_NE(search.describe().find("type=offline_search"),
              std::string::npos);
    EXPECT_NE(search.describe().find("target_deg=0.05"),
              std::string::npos);
}

TEST(ExperimentSpec, ExplicitMaxFrequencyMatchesDefault)
{
    ExperimentSpec implicit = tinySpec("gsm");
    ExperimentSpec explicit_max = tinySpec("gsm");
    explicit_max.startFreq = explicit_max.config.dvfs.freqMax;
    EXPECT_EQ(implicit.cacheKey(), explicit_max.cacheKey());
}

// ------------------------------------------------------------ registry

TEST(ControllerRegistry, BuiltinsAreRegistered)
{
    ControllerRegistry &registry = ControllerRegistry::instance();
    for (const char *name :
         {"none", "constant", "profiling", "schedule", "attack_decay",
          "frontend_attack_decay"})
        EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_GE(registry.list().size(), 4u);
    EXPECT_FALSE(registry.contains("no_such_controller"));
}

TEST(ControllerRegistry, NoneCreatesNull)
{
    EXPECT_EQ(ControllerRegistry::instance().create(ControllerSpec{}),
              nullptr);
}

TEST(ControllerRegistry, AttackDecaySpecRoundTripsExactly)
{
    AttackDecayConfig config;
    config.deviationThreshold = 0.0123;
    config.reactionChange = 0.045;
    config.decay = 0.00275;
    config.perfDegThreshold = 0.031;
    config.endstopCount = 7;
    config.literalListingGuard = true;

    AttackDecayConfig back =
        attackDecayConfigFromSpec(attackDecaySpec(config));
    EXPECT_EQ(back.deviationThreshold, config.deviationThreshold);
    EXPECT_EQ(back.reactionChange, config.reactionChange);
    EXPECT_EQ(back.decay, config.decay);
    EXPECT_EQ(back.perfDegThreshold, config.perfDegThreshold);
    EXPECT_EQ(back.endstopCount, config.endstopCount);
    EXPECT_EQ(back.literalListingGuard, config.literalListingGuard);
}

TEST(ControllerRegistry, ParseControllerSpec)
{
    ControllerSpec plain = parseControllerSpec("attack_decay");
    EXPECT_EQ(plain.name, "attack_decay");
    EXPECT_TRUE(plain.params.empty());

    ControllerSpec with_params =
        parseControllerSpec("attack_decay:decay=0.0125,endstop_count=5");
    EXPECT_EQ(with_params.name, "attack_decay");
    EXPECT_DOUBLE_EQ(with_params.params.at("decay"), 0.0125);
    EXPECT_DOUBLE_EQ(with_params.params.at("endstop_count"), 5.0);
}

// --------------------------------------------------------- ArtifactCache

TEST_F(ArtifactCacheTest, MissThenHit)
{
    ArtifactCache &cache = ArtifactCache::instance();
    ExperimentSpec spec = tinySpec("gsm");

    // The first request also resolves (and misses) the run's warm-up
    // checkpoint: two lookups, one simulation.
    SimStats first = cache.getOrRun(spec);
    EXPECT_EQ(cache.lookups(), 2u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.simulationsRun(), 1u);

    SimStats second = cache.getOrRun(spec);
    EXPECT_EQ(cache.lookups(), 3u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.simulationsRun(), 1u);

    // A cached result is indistinguishable from re-simulating.
    EXPECT_EQ(first.time, second.time);
    EXPECT_EQ(first.chipEnergy, second.chipEnergy);

    ArtifactCache independent; // no shared warm-up checkpoint
    SimStats fresh = runExperiment(spec, independent);
    EXPECT_EQ(first.time, fresh.time);
    EXPECT_EQ(first.chipEnergy, fresh.chipEnergy);
    EXPECT_EQ(first.feCycles, fresh.feCycles);
}

TEST_F(ArtifactCacheTest, DistinctSpecsMissIndependently)
{
    ArtifactCache &cache = ArtifactCache::instance();
    cache.getOrRun(tinySpec("gsm"));
    cache.getOrRun(tinySpec("adpcm"));
    EXPECT_EQ(cache.simulationsRun(), 2u);
    EXPECT_EQ(cache.size(), 4u); // two stats, two warm-up checkpoints
}

TEST_F(ArtifactCacheTest, SeedMatchedVariantsShareACachedBaseline)
{
    // Two variant workflows of one benchmark — a figure comparing
    // Attack/Decay against the MCD baseline, and a sweep comparing a
    // schedule replay against the same baseline — request the same
    // seed-matched baseline spec. It must simulate exactly once.
    ArtifactCache &cache = ArtifactCache::instance();
    RunnerConfig seeded = tinyConfig();
    seeded.clockSeed = deriveJobSeed(seeded.clockSeed, 3);

    ExperimentSpec baseline = tinySpec("gsm", profilingSpec());
    baseline.config = seeded;

    // Workflow 1: baseline + Attack/Decay.
    cache.getOrRun(baseline);
    ExperimentSpec ad =
        tinySpec("gsm", attackDecaySpec(AttackDecayConfig{}));
    ad.config = seeded;
    cache.getOrRun(ad);

    // Workflow 2 re-requests the baseline for its own comparison.
    cache.getOrRun(baseline);

    EXPECT_EQ(cache.simulationsRun(), 2u); // baseline once, A/D once
    // The repeated baseline, and A/D's warm-up checkpoint (the
    // baseline's, shared across controllers).
    EXPECT_EQ(cache.hits(), 2u);
}

TEST_F(ArtifactCacheTest, BatchDeduplicatesAgainstItselfAndTheCache)
{
    ArtifactCache &cache = ArtifactCache::instance();
    ExperimentSpec spec = tinySpec("gsm");

    std::vector<ExperimentSpec> batch = {spec, spec, spec};
    auto results = runExperiments(batch, 2);
    EXPECT_EQ(results.size(), 3u);
    EXPECT_EQ(cache.simulationsRun(), 1u);
    EXPECT_EQ(results[0].time, results[1].time);
    EXPECT_EQ(results[0].time, results[2].time);

    // A later batch containing the same spec is served from cache.
    auto again = runExperiments({spec}, 1);
    EXPECT_EQ(cache.simulationsRun(), 1u);
    EXPECT_EQ(again[0].time, results[0].time);
}

TEST_F(ArtifactCacheTest, InflightMapDrainsOnceRequestsResolve)
{
    // Regression: fetch used to leave one resolved Inflight per unique
    // key in the map forever, growing it by every spec a process ever
    // requested. The map must be empty whenever no request is active —
    // including after concurrent batches, repeats, and nested
    // (search-probe) requests.
    ArtifactCache &cache = ArtifactCache::instance();
    EXPECT_EQ(cache.inflightEntries(), 0u);

    std::vector<ExperimentSpec> batch;
    for (const char *bench : {"gsm", "em3d", "adpcm"}) {
        batch.push_back(tinySpec(bench));
        batch.push_back(tinySpec(bench)); // duplicates share a flight
    }
    runExperiments(batch, 4);
    EXPECT_EQ(cache.inflightEntries(), 0u);
    EXPECT_EQ(cache.size(), 6u); // three stats, three checkpoints

    cache.getOrRun(tinySpec("gsm")); // re-request after the erase
    EXPECT_EQ(cache.simulationsRun(), 3u);
    EXPECT_EQ(cache.inflightEntries(), 0u);

    // Nested requests: an offline search fans out probe requests
    // through the same map.
    Runner runner(tinyConfig());
    std::vector<IntervalProfile> profile;
    SimStats mcd = runner.runMcdBaseline("gsm", &profile);
    runner.runOfflineDynamic("gsm", 0.05, mcd, profile);
    EXPECT_GT(cache.lookups(), 6u);
    EXPECT_EQ(cache.inflightEntries(), 0u);
}

TEST_F(ArtifactCacheTest, SyntheticScenariosRunThroughTheLayer)
{
    SimStats stats = ArtifactCache::instance().getOrRun(
        tinySpec("synthetic:mem=0.9,ilp=4,phases=4"));
    EXPECT_EQ(stats.instructions, tinyConfig().instructions);
    EXPECT_GT(stats.time, 0u);
}

/**
 * The figure-sweep property the cache exists for: fig5/fig6/fig7-style
 * sweeps over one benchmark list, run in one process, issue strictly
 * fewer simulations than the naive one-run-per-request count, because
 * the per-benchmark baselines — and any sweep points whose
 * configurations coincide (Figure 6(a) at decay 0.75% equals Figure
 * 6(b) at reaction 4%) — simulate once.
 */
TEST_F(ArtifactCacheTest, FigureStyleSweepsIssueStrictlyFewerSimulations)
{
    ArtifactCache &cache = ArtifactCache::instance();
    RunnerConfig base = tinyConfig();
    std::vector<std::string> names = {"gsm", "em3d"};

    auto seedMatched = [&](const ControllerSpec &controller,
                           ClockMode mode) {
        std::vector<ExperimentSpec> specs;
        for (std::size_t i = 0; i < names.size(); ++i) {
            ExperimentSpec spec = tinySpec(names[i], controller, mode);
            spec.config.clockSeed =
                deriveJobSeed(base.clockSeed, i);
            specs.push_back(spec);
        }
        return specs;
    };

    auto adConfig = [](double dev, double rc, double decay,
                       double pdt) {
        AttackDecayConfig adc;
        adc.deviationThreshold = dev;
        adc.reactionChange = rc;
        adc.decay = decay;
        adc.perfDegThreshold = pdt;
        return adc;
    };

    std::uint64_t naive = 0;
    auto runSweep = [&](const AttackDecayConfig &adc) {
        naive += names.size();
        runExperiments(seedMatched(attackDecaySpec(adc),
                                   ClockMode::Mcd), 1);
    };

    // Baselines, as computeBaselines issues them.
    naive += 2 * names.size();
    runExperiments(seedMatched(profilingSpec(), ClockMode::Mcd), 1);
    runExperiments(seedMatched(ControllerSpec{},
                               ClockMode::Synchronous), 1);

    // fig6(a)-style decay sweep and fig6(b)-style reaction sweep: the
    // (0.015, 0.04, 0.0075, 0.03) point appears in both.
    for (double decay : {0.005, 0.0075})
        runSweep(adConfig(0.015, 0.04, decay, 0.03));
    for (double rc : {0.04, 0.06})
        runSweep(adConfig(0.015, rc, 0.0075, 0.03));

    std::uint64_t after_fig6 = cache.simulationsRun();
    EXPECT_LT(after_fig6, naive);

    // A fig7-style pass re-runs the same configurations for its own
    // metric; in one process it must not simulate at all.
    for (double decay : {0.005, 0.0075})
        runSweep(adConfig(0.015, 0.04, decay, 0.03));
    for (double rc : {0.04, 0.06})
        runSweep(adConfig(0.015, rc, 0.0075, 0.03));

    EXPECT_EQ(cache.simulationsRun(), after_fig6);
    EXPECT_LT(cache.simulationsRun(), naive);
    // Plus one warm-up checkpoint lookup per simulated run.
    EXPECT_EQ(cache.lookups(), naive + cache.simulationsRun());
}

/**
 * The offline Dynamic-1% and Dynamic-5% searches of one benchmark
 * share their coarse probe grid; running both through the cache must
 * issue strictly fewer schedule replays than the two searches probe.
 */
TEST_F(ArtifactCacheTest, OfflineSearchesShareCoarseProbes)
{
    ArtifactCache &cache = ArtifactCache::instance();
    Runner runner(tinyConfig());
    std::vector<IntervalProfile> profile;
    SimStats mcd = runner.runMcdBaseline("gsm", &profile);

    runner.runOfflineDynamic("gsm", 0.01, mcd, profile);
    std::uint64_t after_first = cache.simulationsRun();
    std::uint64_t lookups_first = cache.lookups();
    EXPECT_GT(after_first, 0u);

    runner.runOfflineDynamic("gsm", 0.05, mcd, profile);
    std::uint64_t second_lookups = cache.lookups() - lookups_first;
    std::uint64_t second_sims = cache.simulationsRun() - after_first;
    // The second search re-probes the identical coarse grid (and
    // possibly more): strictly fewer simulations than probes.
    EXPECT_LT(second_sims, second_lookups);
}

} // namespace
} // namespace mcd
