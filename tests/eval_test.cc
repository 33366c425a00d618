/**
 * @file
 * Tests for the controller stress lab (src/eval/): golden-value regret
 * metrics on a hand-constructed two-regime trace, EvalTrace artifact
 * round-trips and caching (memory, disk, cross-"process"), and the
 * tournament determinism contract: any worker count renders the same
 * bytes, and — by re-executing this binary as fleet workers
 * (EvalWorker.Run below) — two processes warming one shared store plus
 * a render pass produce byte-identical league tables to a serial
 * run, and the warm render executes zero simulations. Also pins the
 * stress lab's reason to exist: an adversarial scenario separates
 * Attack/Decay from the offline oracle further than a paper app does.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/env.hh"
#include "eval/regret.hh"
#include "eval/tournament.hh"
#include "eval/trace.hh"
#include "harness/fleet.hh"
#include "workload/scenario_registry.hh"

namespace mcd
{
namespace
{

namespace fs = std::filesystem;

std::string
selfPath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return buf;
}

/** The tiny methodology every cross-process piece of this suite
 *  shares; explicit fields, no env reads, so parent and re-executed
 *  workers agree on every cache key. */
RunnerConfig
tinyConfig()
{
    RunnerConfig config;
    config.instructions = 3000;
    config.warmup = 500;
    config.intervalInstructions = 250;
    config.jobs = 1;
    return config;
}

constexpr Hertz F_MAX = 1.0e9;

/** A trace whose three domains all follow the same two-level pattern:
 *  the oracle drops from f_max to `low` at interval `flip`, the online
 *  controller follows at interval `follow`. */
EvalTrace
twoRegimeTrace(std::size_t intervals, std::size_t flip,
               std::size_t follow, Hertz low)
{
    EvalTrace trace;
    trace.stats.chipEnergy = 2.0;
    trace.stats.time = 10;
    for (std::size_t i = 0; i < intervals; ++i) {
        TracePoint point;
        point.instructions = 250;
        point.ipc = 1.0;
        point.endTime = static_cast<Tick>(1000 * (i + 1));
        point.chipEnergy = 0.5;
        for (auto &d : point.domains) {
            d.frequency = i < follow ? F_MAX : low;
            d.oracleFrequency = i < flip ? F_MAX : low;
            d.queueUtilization = 1.0;
        }
        trace.points.push_back(point);
    }
    return trace;
}

// ------------------------------------------------- artifact encoding

TEST(EvalTraceArtifact, RoundTripIsExact)
{
    EvalTrace trace = twoRegimeTrace(7, 3, 5, 0.5e9);
    trace.stats.instructions = 1750;
    trace.stats.cpi = 1.25;

    std::string blob = encodeArtifact(trace);
    EvalTrace back;
    ASSERT_TRUE(decodeArtifact(blob, back));
    EXPECT_EQ(back.points.size(), trace.points.size());
    EXPECT_EQ(back.stats.instructions, trace.stats.instructions);
    EXPECT_EQ(back.stats.cpi, trace.stats.cpi);
    for (std::size_t i = 0; i < trace.points.size(); ++i) {
        EXPECT_EQ(back.points[i].endTime, trace.points[i].endTime);
        EXPECT_EQ(back.points[i].chipEnergy,
                  trace.points[i].chipEnergy);
        for (int s = 0; s < NUM_CONTROLLED; ++s) {
            auto k = static_cast<std::size_t>(s);
            EXPECT_EQ(back.points[i].domains[k].frequency,
                      trace.points[i].domains[k].frequency);
            EXPECT_EQ(back.points[i].domains[k].oracleFrequency,
                      trace.points[i].domains[k].oracleFrequency);
        }
    }
    // Exactness the store relies on: re-encoding reproduces the bytes.
    EXPECT_EQ(encodeArtifact(back), blob);

    // Truncation and trailing garbage read as corrupt, not as data.
    EvalTrace scratch;
    EXPECT_FALSE(
        decodeArtifact(blob.substr(0, blob.size() - 1), scratch));
    EXPECT_FALSE(decodeArtifact(blob + "x", scratch));
}

// ---------------------------------------------------- regret metrics

TEST(Regret, GoldenValuesOnATwoRegimeTrace)
{
    // 12 intervals; oracle flips to 0.5 GHz at interval 6, the online
    // controller follows at interval 9 — all three domains alike.
    EvalTrace trace = twoRegimeTrace(12, 6, 9, 0.5e9);
    SimStats oracle;
    oracle.chipEnergy = 1.0;
    oracle.time = 10;

    RegretReport report = computeRegret(trace, oracle, F_MAX);

    EXPECT_EQ(report.intervals, 12u);
    // Intervals 6, 7, 8 are wrong by 0.5 GHz / 1 GHz = 0.5 in every
    // domain: mean = 3 * 0.5 / 12, worst = 0.5.
    EXPECT_DOUBLE_EQ(report.meanFreqError, 3.0 * 0.5 / 12.0);
    EXPECT_DOUBLE_EQ(report.worstFreqError, 0.5);
    for (int s = 0; s < NUM_CONTROLLED; ++s)
        EXPECT_DOUBLE_EQ(
            report.domainFreqError[static_cast<std::size_t>(s)],
            3.0 * 0.5 / 12.0);

    // One flip per domain, all tracked 3 intervals late.
    EXPECT_EQ(report.flips, 3u);
    EXPECT_EQ(report.flipsTracked, 3u);
    EXPECT_DOUBLE_EQ(report.meanReactionIntervals, 3.0);
    EXPECT_DOUBLE_EQ(report.worstReactionIntervals, 3.0);

    // Outcome gaps: double the energy at equal time.
    EXPECT_DOUBLE_EQ(report.energyGap, 1.0);
    EXPECT_DOUBLE_EQ(report.timeGap, 0.0);
    EXPECT_DOUBLE_EQ(report.edpGap, 1.0);
}

TEST(Regret, SkipIntervalsDropsTheWarmupPrefix)
{
    EvalTrace trace = twoRegimeTrace(12, 6, 9, 0.5e9);
    SimStats oracle;
    oracle.chipEnergy = 1.0;
    oracle.time = 10;

    RegretOptions options;
    options.skipIntervals = 7;
    RegretReport report =
        computeRegret(trace, oracle, F_MAX, options);

    // Intervals 7..11 sampled; 7 and 8 are wrong by 0.5. The flip at
    // 6 fell inside the skipped prefix, so no reaction is scored.
    EXPECT_EQ(report.intervals, 5u);
    EXPECT_DOUBLE_EQ(report.meanFreqError, 2.0 * 0.5 / 5.0);
    EXPECT_EQ(report.flips, 0u);
    EXPECT_DOUBLE_EQ(report.meanReactionIntervals, 0.0);
}

TEST(Regret, UntrackedFlipsAreCountedButNotAveraged)
{
    // The online controller never follows (follow > intervals).
    EvalTrace trace = twoRegimeTrace(12, 6, 99, 0.5e9);
    SimStats oracle;
    oracle.chipEnergy = 1.0;
    oracle.time = 10;

    RegretReport report = computeRegret(trace, oracle, F_MAX);
    EXPECT_EQ(report.flips, 3u);
    EXPECT_EQ(report.flipsTracked, 0u);
    EXPECT_DOUBLE_EQ(report.meanReactionIntervals, 0.0);

    // A small oracle wiggle below the flip threshold is not a flip.
    EvalTrace calm = twoRegimeTrace(12, 6, 9, 0.95e9);
    RegretReport quiet = computeRegret(calm, oracle, F_MAX);
    EXPECT_EQ(quiet.flips, 0u);
}

// --------------------------------------------------- trace artifacts

class EvalStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("mcd_eval_test.") + info->name() + "." +
                 std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

TEST_F(EvalStoreTest, TraceSpecMemoizesAndPersists)
{
    TraceSpec spec;
    spec.benchmark = "synthetic:square=1000,mem=0.5";
    spec.controller = parseControllerSpec("attack_decay");
    spec.oracle.assign(14, FrequencyVector{F_MAX, F_MAX, F_MAX});
    spec.config = tinyConfig();

    // In-memory: the second request is a pure hit.
    ArtifactCache cache;
    EvalTrace first = cache.getOrRun(spec);
    EvalTrace again = cache.getOrRun(spec);
    EXPECT_EQ(cache.simulationsRun(), 1u);
    EXPECT_EQ(cache.lookups(), 3u); // + the run's warm-up checkpoint
    EXPECT_EQ(encodeArtifact(again), encodeArtifact(first));
    // 3000 measured instructions at 250 per interval: 12 boundaries
    // (v2: warm-up intervals precede the observer), oracle annotation
    // applied throughout.
    EXPECT_EQ(first.stats.instructions, 3000u);
    ASSERT_GE(first.points.size(), 12u);
    for (const TracePoint &p : first.points)
        EXPECT_EQ(p.domains[0].oracleFrequency, F_MAX);
    // The run produced genuine telemetry: time advances, energy is
    // spent, frequencies live on the DVFS grid.
    for (std::size_t i = 1; i < first.points.size(); ++i)
        EXPECT_GT(first.points[i].endTime,
                  first.points[i - 1].endTime);
    for (const TracePoint &p : first.points) {
        EXPECT_GT(p.chipEnergy, 0.0);
        for (const TraceDomainPoint &d : p.domains) {
            EXPECT_GE(d.frequency, 250.0e6);
            EXPECT_LE(d.frequency, F_MAX);
        }
    }

    // Across cache instances (a cold "process") the disk store serves
    // the identical trace with zero simulations.
    spec.config.store = dir_ + "/store";
    ArtifactCache warm_writer;
    EvalTrace stored = warm_writer.getOrRun(spec);
    EXPECT_EQ(warm_writer.simulationsRun(), 1u);
    ArtifactCache cold_reader;
    EvalTrace replayed = cold_reader.getOrRun(spec);
    EXPECT_EQ(cold_reader.simulationsRun(), 0u);
    EXPECT_EQ(cold_reader.diskHits(), 1u);
    EXPECT_EQ(encodeArtifact(replayed), encodeArtifact(stored));
}

TEST(TraceSpecKey, CoversControllerOracleAndConfig)
{
    TraceSpec spec;
    spec.benchmark = "gsm";
    spec.controller = parseControllerSpec("attack_decay");
    spec.oracle.assign(4, FrequencyVector{F_MAX, F_MAX, F_MAX});
    spec.config = tinyConfig();

    TraceSpec other = spec;
    EXPECT_EQ(other.cacheKey(), spec.cacheKey());
    other.controller = parseControllerSpec("none");
    EXPECT_NE(other.cacheKey(), spec.cacheKey());

    TraceSpec oracle_differs = spec;
    oracle_differs.oracle[2][1] = 0.5e9;
    EXPECT_NE(oracle_differs.cacheKey(), spec.cacheKey());

    TraceSpec config_differs = spec;
    config_differs.config.clockSeed += 1;
    EXPECT_NE(config_differs.cacheKey(), spec.cacheKey());
}

// ------------------------------------------------------- tournament

TEST(Tournament, CorpusAndDefaultsSatisfyTheLabContract)
{
    auto corpus = adversarialCorpus();
    EXPECT_GE(corpus.size(), 6u);
    bool markov = false, square = false, drift = false;
    for (const auto &name : corpus) {
        markov = markov || name.find("markov=") != std::string::npos;
        square = square || name.find("square=") != std::string::npos;
        drift = drift || name.find("drift=") != std::string::npos;
        EXPECT_TRUE(ScenarioRegistry::instance().contains(name))
            << name;
    }
    EXPECT_TRUE(markov);
    EXPECT_TRUE(square);
    EXPECT_TRUE(drift);

    auto entries = defaultTournamentEntries();
    EXPECT_GE(entries.size(), 3u);
    for (const auto &entry : entries)
        EXPECT_TRUE(
            ControllerRegistry::instance().contains(entry.spec.name))
            << entry.label;
}

/**
 * The lab's reason to exist: the adversarial corpus stresses
 * Attack/Decay harder than the paper's applications. An io-like
 * bursty regime-switcher separates the online controller from the
 * offline oracle (energy-delay product gap) further than a
 * well-behaved paper app at the same methodology.
 */
TEST(Tournament, AdversarialScenarioSeparatesAttackDecayFromOracle)
{
    TournamentOptions options;
    options.scenarios = {"synthetic:burst=0.5,phases=8,mem=0.6",
                         "gsm"};
    options.controllers = {defaultTournamentEntries().front()};
    options.config = tinyConfig();

    TournamentResult result = runTournament(options);
    ASSERT_EQ(result.cells.size(), 2u);
    const TournamentCell &adversarial = result.cells[0];
    const TournamentCell &paper = result.cells[1];
    EXPECT_GT(adversarial.regret.edpGap, paper.regret.edpGap);
    EXPECT_GT(adversarial.regret.edpGap, 0.0);
}

/**
 * Width never changes a tournament: the same two scenarios at
 * `jobs = 1` and `jobs = 4`, each side simulating on a private cache,
 * render byte-identical JSON.
 */
TEST(Tournament, WidthNeverChangesResults)
{
    TournamentOptions options;
    options.scenarios = {"synthetic:square=1000,mem=0.5",
                         "synthetic:markov=8,mem=0.5"};
    options.controllers = defaultTournamentEntries();
    options.config = tinyConfig();

    ArtifactCache serial_cache;
    TournamentResult serial = runTournament(options, serial_cache);
    options.config.jobs = 4;
    ArtifactCache wide_cache;
    TournamentResult wide = runTournament(options, wide_cache);

    EXPECT_GT(serial_cache.simulationsRun(), 0u);
    EXPECT_GT(wide_cache.simulationsRun(), 0u);
    EXPECT_EQ(renderTournamentJson(options, serial),
              renderTournamentJson(options, wide));
}

// ------------------------------------- tournament fleet determinism

/**
 * Worker mode: when MCD_EVAL_WORKER_SCENARIOS is set (the fleet tests
 * spawn this binary with it), run the tiny tournament over those
 * scenarios against the fleet's MCD_STORE, write the rendered tables
 * to MCD_EVAL_OUT (when set), and print the `store:` stderr line the
 * driver merges. Skipped in a normal test run.
 */
TEST(EvalWorker, Run)
{
    const char *scenarios =
        std::getenv("MCD_EVAL_WORKER_SCENARIOS");
    if (scenarios == nullptr)
        GTEST_SKIP() << "eval-worker mode only";

    TournamentOptions options;
    options.scenarios = splitScenarioList(scenarios);
    options.controllers = defaultTournamentEntries();
    options.config = tinyConfig();
    options.config.store = envString("MCD_STORE");

    TournamentResult result = runTournament(options);
    if (const char *out = std::getenv("MCD_EVAL_OUT")) {
        std::ofstream file(out);
        file << renderTournament(result);
    }
    ArtifactCache &cache = ArtifactCache::instance();
    std::fprintf(
        stderr,
        "store: lookups=%llu hits=%llu disk_hits=%llu "
        "simulations=%llu\n",
        static_cast<unsigned long long>(cache.lookups()),
        static_cast<unsigned long long>(cache.hits()),
        static_cast<unsigned long long>(cache.diskHits()),
        static_cast<unsigned long long>(cache.simulationsRun()));
}

class TournamentFleetTest : public EvalStoreTest
{
  protected:
    /** One EvalWorker.Run child over `scenarios` against `store`,
     *  rendering to `out` (empty = warm-only). */
    FleetTarget
    workerTarget(const std::string &name, const std::string &scenarios,
                 const std::string &out) const
    {
        FleetTarget target;
        target.name = name;
        std::string script =
            "MCD_EVAL_WORKER_SCENARIOS='" + scenarios + "'";
        if (!out.empty())
            script += " MCD_EVAL_OUT='" + out + "'";
        script += " exec \"$0\" --gtest_filter=EvalWorker.Run"
                  " --gtest_brief=1";
        target.argv = {"/bin/sh", "-c", script, selfPath()};
        return target;
    }

    static std::string
    slurp(const std::string &path)
    {
        std::ifstream file(path);
        std::stringstream buffer;
        buffer << file.rdbuf();
        return buffer.str();
    }
};

/**
 * The tournament determinism contract across the fleet path: a
 * 2-process warming fleet over disjoint scenario slices plus a render
 * pass from the warm store reproduces the serial league table byte
 * for byte, and the warm render executes zero simulations.
 */
TEST_F(TournamentFleetTest, FleetPathMatchesSerialAndWarmRenderIsFree)
{
    ASSERT_FALSE(selfPath().empty());
    const std::string s0 = "synthetic:square=1000,mem=0.5";
    const std::string s1 = "synthetic:markov=8,mem=0.5";
    const std::string both = s0 + "," + s1;

    // Serial reference: one worker computes and renders everything.
    FleetOptions serial;
    serial.procs = 1;
    serial.store = dir_ + "/store-serial";
    FleetReport ref = runFleet(
        {workerTarget("serial", both, dir_ + "/serial.txt")}, serial);
    ASSERT_EQ(ref.failed, 0u);
    std::string expected = slurp(dir_ + "/serial.txt");
    ASSERT_FALSE(expected.empty());
    EXPECT_NE(expected.find("league table"), std::string::npos);

    // Fleet path: two warm-only workers fill a fresh store
    // concurrently, then a render pass reads it back.
    FleetOptions wide;
    wide.procs = 2;
    wide.store = dir_ + "/store-fleet";
    FleetReport warm = runFleet({workerTarget("w0", s0, ""),
                                 workerTarget("w1", s1, "")},
                                wide);
    ASSERT_EQ(warm.failed, 0u);
    EXPECT_GT(warm.merged.simulations, 0u);

    FleetReport render = runFleet(
        {workerTarget("render", both, dir_ + "/fleet.txt")}, wide);
    ASSERT_EQ(render.failed, 0u);
    EXPECT_EQ(slurp(dir_ + "/fleet.txt"), expected);
    ASSERT_TRUE(render.targets[0].store.present);
    EXPECT_EQ(render.targets[0].store.simulations, 0u);
}

} // namespace
} // namespace mcd
