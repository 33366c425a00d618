/**
 * @file
 * Tests for the experiment harness: metric arithmetic, table/CSV
 * rendering, and the Runner's canonical configurations and searches on
 * small windows.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/artifact.hh"
#include "harness/experiment.hh"
#include "harness/metrics.hh"
#include "harness/table.hh"

namespace mcd
{
namespace
{

SimStats
makeStats(Tick time, NanoJoule energy, std::uint64_t insts = 1000)
{
    SimStats stats;
    stats.instructions = insts;
    stats.time = time;
    stats.chipEnergy = energy;
    stats.feCycles = static_cast<std::uint64_t>(time);
    stats.cpi = static_cast<double>(stats.feCycles) /
                static_cast<double>(insts);
    stats.epi = energy / static_cast<double>(insts);
    return stats;
}

TEST(Metrics, CompareBasics)
{
    SimStats ref = makeStats(1000, 1000.0);
    SimStats x = makeStats(1100, 800.0);
    ComparisonMetrics m = compare(ref, x);
    EXPECT_NEAR(m.perfDegradation, 0.10, 1e-12);
    EXPECT_NEAR(m.energySavings, 0.20, 1e-12);
    // EDP: 1 - (800*1100)/(1000*1000) = 0.12
    EXPECT_NEAR(m.edpImprovement, 0.12, 1e-12);
    // Power: 1 - (800/1100)/(1000/1000) = 1 - 0.7272..
    EXPECT_NEAR(m.powerSavings, 1.0 - 800.0 / 1100.0, 1e-12);
    EXPECT_NEAR(m.epiReduction, 0.20, 1e-12);
    EXPECT_NEAR(m.cpiIncrease, 0.10, 1e-12);
}

TEST(Metrics, IdenticalRunsAreAllZero)
{
    SimStats s = makeStats(1000, 1000.0);
    ComparisonMetrics m = compare(s, s);
    EXPECT_DOUBLE_EQ(m.perfDegradation, 0.0);
    EXPECT_DOUBLE_EQ(m.energySavings, 0.0);
    EXPECT_DOUBLE_EQ(m.edpImprovement, 0.0);
}

TEST(Metrics, MeanOf)
{
    std::vector<ComparisonMetrics> all(2);
    all[0].energySavings = 0.10;
    all[1].energySavings = 0.30;
    EXPECT_DOUBLE_EQ(meanOf(all, &ComparisonMetrics::energySavings),
                     0.20);
    EXPECT_DOUBLE_EQ(meanOf({}, &ComparisonMetrics::energySavings),
                     0.0);
}

TEST(Metrics, PowerPerfRatio)
{
    std::vector<ComparisonMetrics> all(2);
    all[0].powerSavings = 0.20;
    all[0].perfDegradation = 0.05;
    all[1].powerSavings = 0.10;
    all[1].perfDegradation = 0.05;
    // mean power 15% / mean deg 5% = 3.
    EXPECT_NEAR(powerPerfRatio(all), 3.0, 1e-12);
}

TEST(Metrics, PowerPerfRatioZeroWhenNoDegradation)
{
    std::vector<ComparisonMetrics> all(1);
    all[0].powerSavings = 0.2;
    all[0].perfDegradation = 0.0;
    EXPECT_DOUBLE_EQ(powerPerfRatio(all), 0.0);
}

TEST(Table, RenderAlignsColumns)
{
    TextTable table("title");
    table.setHeader({"a", "bbbb"});
    table.addRow({"xx", "y"});
    std::string out = table.render();
    EXPECT_NE(out.find("title\n"), std::string::npos);
    EXPECT_NE(out.find("a   bbbb\n"), std::string::npos);
    EXPECT_NE(out.find("xx  y\n"), std::string::npos);
}

TEST(Table, CsvIsCommaSeparated)
{
    TextTable table;
    table.setHeader({"a", "b"});
    table.addRow({"1", "2"});
    EXPECT_EQ(table.csv(), "a,b\n1,2\n");
}

TEST(Table, Formatters)
{
    EXPECT_EQ(pct(0.032), "3.2%");
    EXPECT_EQ(pct(0.0175, 2), "1.75%");
    EXPECT_EQ(num(4.567, 1), "4.6");
    EXPECT_EQ(ghz(1.0e9, 1), "1.0 GHz");
    EXPECT_EQ(ghz(6.544e8, 3), "0.654 GHz");
}

RunnerConfig
tinyConfig()
{
    RunnerConfig config;
    config.instructions = 20000;
    config.warmup = 5000;
    config.intervalInstructions = 500;
    return config;
}

/** `bench` on the tiny machine, resolved through the cache. */
SimStats
run(const std::string &bench,
    const ControllerSpec &controller = ControllerSpec{},
    ClockMode mode = ClockMode::Mcd)
{
    ExperimentSpec spec;
    spec.benchmark = bench;
    spec.mode = mode;
    spec.controller = controller;
    spec.config = tinyConfig();
    return ArtifactCache::instance().getOrRun(spec);
}

/** The fully synchronous machine at 1 GHz (f_max). */
SimStats
synchronous(const std::string &bench)
{
    return run(bench, ControllerSpec{}, ClockMode::Synchronous);
}

TEST(Runner, SynchronousAndMcdBaselines)
{
    Runner runner(tinyConfig());
    SimStats sync = synchronous("gsm");
    SimStats mcd = runner.runMcdBaseline("gsm");
    EXPECT_EQ(sync.instructions, 20000u);
    EXPECT_EQ(mcd.instructions, 20000u);
    // MCD pays sync penalties and clock overhead.
    EXPECT_GT(mcd.time, sync.time);
    EXPECT_GT(mcd.epi, sync.epi);
}

TEST(Runner, BaselineProfilesEveryMeasuredInterval)
{
    Runner runner(tinyConfig());
    std::vector<IntervalProfile> profile;
    runner.runMcdBaseline("gsm", &profile);
    // Methodology v2: the observer engages at the measurement
    // boundary, so only measured / interval boundaries are recorded.
    EXPECT_GE(profile.size(), 40u);
    EXPECT_LE(profile.size(), 41u);
    for (const auto &p : profile) {
        EXPECT_EQ(p.instructions, 500u);
        EXPECT_GT(p.cycles[CTL_INT], 0u);
    }
}

TEST(Runner, AttackDecaySavesEnergyOnPhasedWorkload)
{
    Runner runner(tinyConfig());
    SimStats mcd = runner.runMcdBaseline("adpcm");
    SimStats ad = run("adpcm", attackDecaySpec(AttackDecayConfig{}));
    ComparisonMetrics m = compare(mcd, ad);
    EXPECT_GT(m.energySavings, 0.01);
    EXPECT_LT(m.perfDegradation, 0.15);
}

TEST(Runner, ScheduleRunsApplySchedules)
{
    auto replay = [](Hertz freq) {
        ControllerSpec schedule;
        schedule.name = "schedule";
        schedule.schedule = {FrequencyVector{freq, freq, freq}};
        return run("gsm", schedule);
    };
    SimStats fast = replay(1.0e9);
    SimStats slow = replay(250.0e6);
    EXPECT_GT(slow.time, fast.time);
    EXPECT_LT(slow.chipEnergy, fast.chipEnergy);
}

TEST(Runner, OfflineSearchRespectsCap)
{
    Runner runner(tinyConfig());
    std::vector<IntervalProfile> profile;
    SimStats mcd = runner.runMcdBaseline("gsm", &profile);
    OfflineResult result =
        runner.runOfflineDynamic("gsm", 0.05, mcd, profile);
    EXPECT_LE(result.achievedDeg, 0.05 + 1e-9);
    EXPECT_GE(result.margin, 0.0);
    EXPECT_LE(result.margin, 1.0);
    // The schedule must save energy against the baseline.
    EXPECT_LT(result.stats.chipEnergy, mcd.chipEnergy);
}

TEST(Runner, OfflineFiveIsAtLeastAsAggressiveAsOne)
{
    Runner runner(tinyConfig());
    std::vector<IntervalProfile> profile;
    SimStats mcd = runner.runMcdBaseline("epic", &profile);
    OfflineResult dyn1 =
        runner.runOfflineDynamic("epic", 0.01, mcd, profile);
    OfflineResult dyn5 =
        runner.runOfflineDynamic("epic", 0.05, mcd, profile);
    EXPECT_LE(dyn5.stats.chipEnergy, dyn1.stats.chipEnergy * 1.001);
}

TEST(Runner, GlobalAtDegradationScalesFrequency)
{
    Runner runner(tinyConfig());
    GlobalResult result = runner.runGlobalAtDegradation("gsm", 0.10);
    EXPECT_NEAR(result.freq, 1.0e9 / 1.10, 1.0e9 / 1.10 * 0.01);
    SimStats sync = synchronous("gsm");
    ComparisonMetrics m = compare(sync, result.stats);
    EXPECT_GT(m.perfDegradation, 0.0);
    EXPECT_GT(m.energySavings, 0.0);
}

TEST(Runner, GlobalMatchingHitsTargetTime)
{
    Runner runner(tinyConfig());
    SimStats sync = synchronous("gsm");
    Tick target = static_cast<Tick>(
        static_cast<double>(sync.time) * 1.08);
    GlobalResult result = runner.runGlobalMatching("gsm", target);
    double error = std::abs(static_cast<double>(result.stats.time) -
                            static_cast<double>(target)) /
                   static_cast<double>(target);
    EXPECT_LT(error, 0.03);
    EXPECT_LT(result.freq, 1.0e9);
}

/** Scoped unsetter so env-var tests cannot leak into one another. */
class EnvGuard
{
  public:
    EnvGuard()
    {
        clear();
    }

    ~EnvGuard()
    {
        clear();
    }

  private:
    void
    clear()
    {
        unsetenv("MCD_INSNS");
        unsetenv("MCD_WARMUP");
        unsetenv("MCD_INTERVAL");
        unsetenv("MCD_JOBS");
    }
};

TEST(Runner, EnvOverrides)
{
    EnvGuard guard;
    setenv("MCD_INSNS", "12345", 1);
    setenv("MCD_WARMUP", "678", 1);
    setenv("MCD_INTERVAL", "250", 1);
    setenv("MCD_JOBS", "4", 1);
    RunnerConfig config;
    config.applyEnvOverrides();
    EXPECT_EQ(config.instructions, 12345u);
    EXPECT_EQ(config.warmup, 678u);
    EXPECT_EQ(config.intervalInstructions, 250);
    EXPECT_EQ(config.jobs, 4);
}

TEST(Runner, EnvOverridesAbsentLeaveDefaults)
{
    EnvGuard guard;
    RunnerConfig config;
    config.applyEnvOverrides();
    RunnerConfig defaults;
    EXPECT_EQ(config.instructions, defaults.instructions);
    EXPECT_EQ(config.warmup, defaults.warmup);
    EXPECT_EQ(config.intervalInstructions,
              defaults.intervalInstructions);
    EXPECT_EQ(config.jobs, defaults.jobs);
}

TEST(Runner, EnvOverridesIgnoreBadValues)
{
    EnvGuard guard;
    // Non-numeric, zero, and negative values must not clobber a sane
    // configuration (zero instructions or interval would hang or
    // divide by zero downstream).
    setenv("MCD_INSNS", "banana", 1);
    setenv("MCD_WARMUP", "-5", 1);
    setenv("MCD_INTERVAL", "0", 1);
    setenv("MCD_JOBS", "-2", 1);
    RunnerConfig config;
    config.applyEnvOverrides();
    RunnerConfig defaults;
    EXPECT_EQ(config.instructions, defaults.instructions);
    EXPECT_EQ(config.warmup, defaults.warmup);
    EXPECT_EQ(config.intervalInstructions,
              defaults.intervalInstructions);
    EXPECT_EQ(config.jobs, defaults.jobs);
}

TEST(Runner, EnvOverridesAllowZeroWarmup)
{
    EnvGuard guard;
    // Warm-up may legitimately be disabled entirely.
    setenv("MCD_WARMUP", "0", 1);
    RunnerConfig config;
    config.applyEnvOverrides();
    EXPECT_EQ(config.warmup, 0u);
}

TEST(Runner, EnvOverridesPartialSetTouchesOnlyThatKnob)
{
    EnvGuard guard;
    setenv("MCD_INTERVAL", "750", 1);
    RunnerConfig config;
    config.applyEnvOverrides();
    RunnerConfig defaults;
    EXPECT_EQ(config.intervalInstructions, 750);
    EXPECT_EQ(config.instructions, defaults.instructions);
    EXPECT_EQ(config.warmup, defaults.warmup);
    EXPECT_EQ(config.jobs, defaults.jobs);
}

TEST(Runner, IdenticalVariantsShareTheWorkloadStream)
{
    // Two simulations of the same baseline run must be byte-identical:
    // the workload and clocks are seeded deterministically. Each runs
    // on a fresh cache, so neither is a cache hit or a checkpoint
    // restore: both step the whole warm-up and measured window.
    ProfileSpec baseline;
    baseline.benchmark = "bh";
    baseline.config = tinyConfig();
    ArtifactCache first;
    ArtifactCache second;
    std::string a =
        encodeArtifact(runExperiment(baseline.experimentSpec(), first));
    std::string b =
        encodeArtifact(runExperiment(baseline.experimentSpec(), second));
    EXPECT_GE(first.simulatedInstructions(),
              baseline.config.warmup + baseline.config.instructions);
    EXPECT_EQ(first.simulatedInstructions(),
              second.simulatedInstructions());
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace mcd
