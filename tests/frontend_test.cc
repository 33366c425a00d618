/**
 * @file
 * Tests for the reusable Attack/Decay step function and the front-end
 * scaling extension (Section 7 future work): ROB-occupancy reporting,
 * the extension controller, and the near-linear front-end-slowdown
 * claim of Section 3.
 */

#include <gtest/gtest.h>

#include "control/attack_decay.hh"
#include "harness/experiment.hh"
#include "harness/metrics.hh"

namespace mcd
{
namespace
{

constexpr Hertz F_MIN = 250.0e6;
constexpr Hertz F_MAX = 1.0e9;

/** `bench` on the MCD machine of `config`, named by `controller`. */
ExperimentSpec
mcdSpec(const RunnerConfig &config, const std::string &bench,
        const ControllerSpec &controller = ControllerSpec{})
{
    ExperimentSpec spec;
    spec.benchmark = bench;
    spec.controller = controller;
    spec.config = config;
    return spec;
}

TEST(AttackDecayStep, AttackUpOnUtilizationIncrease)
{
    AttackDecayDomainState state;
    state.freq = 500.0e6;
    state.prevUtilization = 1.0;
    state.prevIpc = 1.0;
    AttackDecayConfig config;
    Hertz f = attackDecayStep(state, 2.0, 1.0, config, F_MIN, F_MAX);
    EXPECT_NEAR(f, 500.0e6 / (1.0 - config.reactionChange), 1.0);
}

TEST(AttackDecayStep, AttackDownOnUtilizationDecrease)
{
    AttackDecayDomainState state;
    state.freq = 500.0e6;
    state.prevUtilization = 2.0;
    state.prevIpc = 1.0;
    AttackDecayConfig config;
    Hertz f = attackDecayStep(state, 1.0, 1.0, config, F_MIN, F_MAX);
    EXPECT_NEAR(f, 500.0e6 / (1.0 + config.reactionChange), 1.0);
}

TEST(AttackDecayStep, DecayWhenFlat)
{
    AttackDecayDomainState state;
    state.freq = 500.0e6;
    state.prevUtilization = 1.0;
    state.prevIpc = 1.0;
    AttackDecayConfig config;
    Hertz f = attackDecayStep(state, 1.0, 1.0, config, F_MIN, F_MAX);
    EXPECT_NEAR(f, 500.0e6 / (1.0 + config.decay), 1.0);
}

TEST(AttackDecayStep, StatePropagatesPrevSamples)
{
    AttackDecayDomainState state;
    state.freq = 800.0e6;
    AttackDecayConfig config;
    attackDecayStep(state, 3.5, 1.25, config, F_MIN, F_MAX);
    EXPECT_DOUBLE_EQ(state.prevUtilization, 3.5);
    EXPECT_DOUBLE_EQ(state.prevIpc, 1.25);
}

TEST(AttackDecayStep, ClampsToRange)
{
    AttackDecayDomainState state;
    state.freq = F_MIN;
    state.prevUtilization = 2.0;
    state.prevIpc = 1.0;
    AttackDecayConfig config;
    config.endstopCount = 0;
    // Attack down at the floor: stays at the floor.
    Hertz f = attackDecayStep(state, 1.0, 1.0, config, F_MIN, F_MAX);
    EXPECT_DOUBLE_EQ(f, F_MIN);
    // Attack up beyond the ceiling: clamps to the ceiling.
    state.freq = F_MAX;
    state.prevUtilization = 1.0;
    f = attackDecayStep(state, 5.0, 1.0, config, F_MIN, F_MAX);
    EXPECT_DOUBLE_EQ(f, F_MAX);
}

TEST(AttackDecayStep, EndstopCountersTrackExtremes)
{
    AttackDecayDomainState state;
    state.freq = F_MAX;
    AttackDecayConfig config;
    config.endstopCount = 3;
    // Flat utilization with a big IPC *drop* each interval: the guard
    // (prevIpc/ipc = 2 > 1 + threshold) blocks the decay, so the
    // frequency stays pinned at the maximum and the upper end-stop
    // counter advances.
    for (int i = 1; i <= 3; ++i) {
        state.prevIpc = 2.0;
        attackDecayStep(state, 1.0, 1.0, config, F_MIN, F_MAX);
        ASSERT_DOUBLE_EQ(state.freq, F_MAX);
        EXPECT_EQ(state.upperEndstop, i);
    }
    // The next step must force a decrease off the ceiling.
    state.prevIpc = 2.0;
    Hertz f = attackDecayStep(state, 1.0, 1.0, config, F_MIN, F_MAX);
    EXPECT_LT(f, F_MAX);
}

TEST(Simulator, ReportsRobOccupancy)
{
    auto workload = BenchmarkFactory::create("gsm", 50000);
    SimConfig config;
    config.core.intervalInstructions = 1000;
    Simulator sim(config, *workload);
    double max_occupancy = 0.0;
    double util_sum = 0.0;
    int samples = 0;
    sim.setIntervalObserver([&](const IntervalStats &stats) {
        max_occupancy =
            std::max(max_occupancy, stats.avgRobOccupancy);
        util_sum += stats.robUtilization;
        ++samples;
        EXPECT_DOUBLE_EQ(stats.feFrequency, 1.0e9);
    });
    sim.run(20000);
    ASSERT_GT(samples, 0);
    EXPECT_GT(max_occupancy, 1.0);
    EXPECT_LE(max_occupancy, 80.0); // bounded by the ROB size
    EXPECT_GT(util_sum / samples, 0.1);
}

TEST(FrontEndExtension, DecaysFrontEndWhenRobIsFlat)
{
    RunnerConfig config;
    config.instructions = 40000;
    config.warmup = 5000;
    config.intervalInstructions = 500;
    AttackDecayConfig adc;
    adc.decay = 0.0125;
    FrontEndAttackDecayController controller(adc);
    double min_fe = 1.0e9;
    runWithController(
        mcdSpec(config, "adpcm",
                attackDecaySpec(adc, "frontend_attack_decay")),
        &controller, ArtifactCache::instance(),
        [&](const IntervalStats &stats) {
            min_fe = std::min(min_fe, stats.feFrequency);
        });
    // The front end must have moved (the extension is active)...
    EXPECT_LT(min_fe, 1.0e9);
    // ...but not crashed to the floor: ROB utilization pushes back.
    EXPECT_GT(min_fe, 0.3e9);
}

TEST(FrontEndExtension, FrontEndSlowdownHurtsHighIpcAppsMost)
{
    // Section 3's rationale for pinning the front end: slowing it
    // degrades performance because every instruction flows through it.
    // The effect strengthens as IPC approaches the fetch bandwidth:
    // adpcm (IPC ~1.6) must suffer far more from a halved front end
    // than mcf (IPC ~0.15, memory-bound).
    RunnerConfig config;
    config.instructions = 40000;
    config.warmup = 10000;
    Runner runner(config);

    class Pinned : public FrequencyController
    {
      public:
        explicit Pinned(Hertz fe) : fe_(fe) {}
        void
        onStart(ClockSystem &clocks) override
        {
            clocks.clock(DomainId::FrontEnd).setFrequencyImmediate(fe_);
        }
        void
        onInterval(const IntervalStats &, ClockSystem &) override
        {
        }

      private:
        Hertz fe_;
    };

    auto degradation = [&](const char *bench) {
        SimStats base = runner.runMcdBaseline(bench);
        Pinned slow(0.5e9); // halved front end
        SimStats pinned = runWithController(
            mcdSpec(config, bench), &slow, runner.cache());
        return compare(base, pinned).perfDegradation;
    };

    double adpcm_deg = degradation("adpcm");
    double mcf_deg = degradation("mcf");
    EXPECT_GT(adpcm_deg, 0.15); // fetch-bandwidth-coupled
    EXPECT_GT(adpcm_deg, 2.0 * mcf_deg);
}

TEST(FrontEndExtension, BackEndBehaviorMatchesPlainController)
{
    // The extension delegates the three back-end domains to the plain
    // controller: with the front end's signal saturated (high ROB
    // utilization keeps FE near max), overall results stay close.
    RunnerConfig config;
    config.instructions = 30000;
    config.warmup = 5000;
    AttackDecayConfig adc;
    ArtifactCache &cache = ArtifactCache::instance();
    SimStats plain =
        cache.getOrRun(mcdSpec(config, "swim", attackDecaySpec(adc)));
    SimStats extended = cache.getOrRun(mcdSpec(
        config, "swim", attackDecaySpec(adc, "frontend_attack_decay")));
    // Both are valid runs of the same workload.
    EXPECT_EQ(plain.instructions, extended.instructions);
    // The extension can only add front-end slowdown.
    EXPECT_GE(static_cast<double>(extended.time),
              static_cast<double>(plain.time) * 0.98);
}

} // namespace
} // namespace mcd
