/**
 * @file
 * Tests for the control layer: the Attack/Decay algorithm against
 * hand-computed Listing 1 behavior, end-stop forcing, the
 * PerfDegThreshold guard in both semantics, range clamping and grid
 * quantization; the constant/profiling/schedule controllers; the
 * off-line schedule derivation; and the Table 3 gate estimator.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "control/attack_decay.hh"
#include "control/basic_controllers.hh"
#include "control/gate_estimator.hh"
#include "core/core_config.hh"

namespace mcd
{
namespace
{

/** Harness: drive a controller with synthetic interval samples. */
class ControllerHarness
{
  public:
    ControllerHarness()
        : dvfs_(DvfsConfig{}),
          clocks_(dvfs_, makeClockConfig())
    {
    }

    static ClockSystemConfig
    makeClockConfig()
    {
        ClockSystemConfig config;
        config.jittered = false;
        return config;
    }

    IntervalStats
    makeStats(double int_util, double fp_util, double ls_util,
              double ipc)
    {
        IntervalStats stats;
        stats.index = index_++;
        stats.instructions = 10000;
        stats.feCycles = static_cast<std::uint64_t>(10000 / ipc);
        stats.ipc = ipc;
        stats.domains[CTL_INT].queueUtilization = int_util;
        stats.domains[CTL_FP].queueUtilization = fp_util;
        stats.domains[CTL_LS].queueUtilization = ls_util;
        for (int slot = 0; slot < NUM_CONTROLLED; ++slot)
            stats.domains[static_cast<std::size_t>(slot)].frequency =
                clocks_.clock(controlledDomainId(slot))
                    .targetFrequency();
        return stats;
    }

    Hertz
    target(int slot)
    {
        return clocks_.clock(controlledDomainId(slot))
            .targetFrequency();
    }

    DvfsModel dvfs_;
    ClockSystem clocks_;
    std::uint64_t index_ = 0;
};

TEST(AttackDecay, SignificantUtilizationIncreaseAttacksUpward)
{
    ControllerHarness harness;
    AttackDecayController controller;
    controller.onStart(harness.clocks_);
    // Drop everything well below max first.
    harness.clocks_.clock(DomainId::Integer).setFrequencyImmediate(
        500e6);
    controller.onStart(harness.clocks_); // re-sync internal state

    controller.onInterval(harness.makeStats(1.0, 0.0, 0.0, 1.0),
                          harness.clocks_);
    Hertz f1 = controller.internalFrequency(CTL_INT);
    // Utilization jumps 1.0 -> 2.0 (a 100% increase, above the 1.75%
    // threshold): period *= 1 - 0.06.
    controller.onInterval(harness.makeStats(2.0, 0.0, 0.0, 1.0),
                          harness.clocks_);
    Hertz f2 = controller.internalFrequency(CTL_INT);
    EXPECT_NEAR(f2, f1 / (1.0 - 0.06), f1 * 1e-9);
}

TEST(AttackDecay, SignificantDecreaseAttacksDownward)
{
    ControllerHarness harness;
    AttackDecayController controller;
    controller.onStart(harness.clocks_);
    controller.onInterval(harness.makeStats(2.0, 0.0, 0.0, 1.0),
                          harness.clocks_);
    Hertz f1 = controller.internalFrequency(CTL_INT);
    controller.onInterval(harness.makeStats(1.0, 0.0, 0.0, 1.0),
                          harness.clocks_);
    Hertz f2 = controller.internalFrequency(CTL_INT);
    EXPECT_NEAR(f2, f1 / (1.0 + 0.06), f1 * 1e-9);
}

TEST(AttackDecay, QuietIntervalDecays)
{
    ControllerHarness harness;
    AttackDecayConfig config;
    AttackDecayController controller(config);
    controller.onStart(harness.clocks_);
    controller.onInterval(harness.makeStats(1.0, 0.0, 0.0, 1.0),
                          harness.clocks_);
    Hertz f1 = controller.internalFrequency(CTL_INT);
    // Identical utilization: no significant change -> decay.
    controller.onInterval(harness.makeStats(1.0, 0.0, 0.0, 1.0),
                          harness.clocks_);
    Hertz f2 = controller.internalFrequency(CTL_INT);
    EXPECT_NEAR(f2, f1 / (1.0 + config.decay), f1 * 1e-9);
}

TEST(AttackDecay, GuardBlocksDecreaseWhenIpcDrops)
{
    ControllerHarness harness;
    AttackDecayController controller;
    controller.onStart(harness.clocks_);
    controller.onInterval(harness.makeStats(2.0, 0.0, 0.0, 1.0),
                          harness.clocks_);
    Hertz f1 = controller.internalFrequency(CTL_INT);
    // Utilization halves (wants attack down) but IPC dropped 10% >
    // 2.5% threshold: frequency must stay unchanged.
    controller.onInterval(harness.makeStats(1.0, 0.0, 0.0, 0.9),
                          harness.clocks_);
    EXPECT_DOUBLE_EQ(controller.internalFrequency(CTL_INT), f1);
}

TEST(AttackDecay, GuardPermitsDecreaseWhenIpcStable)
{
    ControllerHarness harness;
    AttackDecayController controller;
    controller.onStart(harness.clocks_);
    controller.onInterval(harness.makeStats(2.0, 0.0, 0.0, 1.0),
                          harness.clocks_);
    Hertz f1 = controller.internalFrequency(CTL_INT);
    controller.onInterval(harness.makeStats(1.0, 0.0, 0.0, 0.99),
                          harness.clocks_);
    EXPECT_LT(controller.internalFrequency(CTL_INT), f1);
}

TEST(AttackDecay, LiteralListingGuardInverts)
{
    ControllerHarness harness;
    AttackDecayConfig config;
    config.literalListingGuard = true;
    AttackDecayController controller(config);
    controller.onStart(harness.clocks_);
    controller.onInterval(harness.makeStats(2.0, 0.0, 0.0, 1.0),
                          harness.clocks_);
    Hertz f1 = controller.internalFrequency(CTL_INT);
    // Stable IPC: the literal guard (ratio >= 1+threshold) blocks the
    // decay that the prose guard would permit.
    controller.onInterval(harness.makeStats(1.0, 0.0, 0.0, 1.0),
                          harness.clocks_);
    EXPECT_DOUBLE_EQ(controller.internalFrequency(CTL_INT), f1);
    // Big IPC drop: the literal guard now PERMITS the decrease.
    controller.onInterval(harness.makeStats(0.5, 0.0, 0.0, 0.8),
                          harness.clocks_);
    EXPECT_LT(controller.internalFrequency(CTL_INT), f1);
}

TEST(AttackDecay, FrequencyClampsAtMinimum)
{
    ControllerHarness harness;
    AttackDecayConfig config;
    config.endstopCount = 0; // disable forcing for this test
    AttackDecayController controller(config);
    controller.onStart(harness.clocks_);
    // Persistently shrinking utilization drives frequency to the floor.
    double util = 1000.0;
    for (int i = 0; i < 400; ++i) {
        controller.onInterval(
            harness.makeStats(util, util, util, 1.0),
            harness.clocks_);
        util *= 0.5;
    }
    EXPECT_DOUBLE_EQ(controller.internalFrequency(CTL_INT), 250.0e6);
    EXPECT_DOUBLE_EQ(harness.target(CTL_INT), 250.0e6);
}

TEST(AttackDecay, EndstopForcesIncreaseOffTheFloor)
{
    ControllerHarness harness;
    AttackDecayConfig config;
    config.endstopCount = 10;
    AttackDecayController controller(config);
    controller.onStart(harness.clocks_);
    // Park at the floor. The end-stop periodically forces the
    // frequency off the extreme, so loop until we observe it exactly
    // at the floor.
    double util = 1000.0;
    int guard = 0;
    while (controller.internalFrequency(CTL_INT) != 250.0e6 &&
           guard++ < 1000) {
        controller.onInterval(harness.makeStats(util, 0, 0, 1.0),
                              harness.clocks_);
        util = std::max(util * 0.5, 1e-6);
    }
    ASSERT_DOUBLE_EQ(controller.internalFrequency(CTL_INT), 250.0e6);
    // Now hold utilization perfectly flat with degraded IPC so neither
    // attack nor decay applies; after endstopCount intervals at the
    // floor, the controller must force an increase.
    bool forced = false;
    for (int i = 0; i < 12; ++i) {
        controller.onInterval(harness.makeStats(0.0, 0, 0, 0.5),
                              harness.clocks_);
        if (controller.internalFrequency(CTL_INT) > 250.0e6) {
            forced = true;
            break;
        }
    }
    EXPECT_TRUE(forced);
}

TEST(AttackDecay, EndstopForcesDecreaseOffTheCeiling)
{
    ControllerHarness harness;
    AttackDecayConfig config;
    config.endstopCount = 10;
    // Guard that never allows decay so only the endstop can move us.
    config.perfDegThreshold = -1.0;
    AttackDecayController controller(config);
    controller.onStart(harness.clocks_);
    bool forced = false;
    for (int i = 0; i < 13; ++i) {
        controller.onInterval(harness.makeStats(1.0, 1.0, 1.0, 1.0),
                              harness.clocks_);
        if (controller.internalFrequency(CTL_INT) < 1.0e9) {
            forced = true;
            break;
        }
    }
    EXPECT_TRUE(forced);
}

TEST(AttackDecay, DomainsAreIndependent)
{
    ControllerHarness harness;
    AttackDecayController controller;
    controller.onStart(harness.clocks_);
    controller.onInterval(harness.makeStats(1.0, 1.0, 1.0, 1.0),
                          harness.clocks_);
    // INT rises, FP falls, LS flat.
    controller.onInterval(harness.makeStats(2.0, 0.5, 1.0, 1.0),
                          harness.clocks_);
    EXPECT_GT(controller.internalFrequency(CTL_INT),
              controller.internalFrequency(CTL_LS));
    EXPECT_LT(controller.internalFrequency(CTL_FP),
              controller.internalFrequency(CTL_LS));
}

TEST(AttackDecay, ProgrammedTargetIsOnTheGrid)
{
    ControllerHarness harness;
    AttackDecayController controller;
    controller.onStart(harness.clocks_);
    for (int i = 0; i < 20; ++i)
        controller.onInterval(harness.makeStats(1.0, 1.0, 1.0, 1.0),
                              harness.clocks_);
    for (int slot = 0; slot < NUM_CONTROLLED; ++slot) {
        Hertz target = harness.target(slot);
        EXPECT_DOUBLE_EQ(target, harness.dvfs_.quantize(target));
    }
}

TEST(AttackDecay, SmallDecayStepsAccumulateDespiteQuantization)
{
    ControllerHarness harness;
    AttackDecayConfig config;
    AttackDecayController controller(config);
    controller.onStart(harness.clocks_);
    harness.clocks_.clock(DomainId::Integer).setFrequencyImmediate(
        500e6);
    controller.onStart(harness.clocks_);
    // Prime one interval (the first sample sees prevUtil = 0 and
    // registers an attack); decay dynamics start from the second.
    controller.onInterval(harness.makeStats(1.0, 1.0, 1.0, 1.0),
                          harness.clocks_);
    Hertz start = controller.internalFrequency(CTL_INT);
    // 100 decay steps at 0.175% each: ~16% period growth, even though
    // a single step is below the grid resolution near 500 MHz.
    for (int i = 0; i < 100; ++i)
        controller.onInterval(harness.makeStats(1.0, 1.0, 1.0, 1.0),
                              harness.clocks_);
    Hertz end = controller.internalFrequency(CTL_INT);
    EXPECT_NEAR(end, start / std::pow(1.00175, 100), start * 1e-6);
    EXPECT_LT(harness.target(CTL_INT), 500e6 * 0.95);
}

TEST(ConstantController, SetsAllDomains)
{
    ControllerHarness harness;
    ConstantController controller(600.0e6);
    controller.onStart(harness.clocks_);
    for (int slot = 0; slot < NUM_CONTROLLED; ++slot)
        EXPECT_NEAR(harness.target(slot), 600.0e6,
                    harness.dvfs_.stepHz());
}

TEST(ConstantController, PerDomainFrequencies)
{
    ControllerHarness harness;
    FrequencyVector freqs = {1.0e9, 250.0e6, 500.0e6};
    ConstantController controller(freqs);
    controller.onStart(harness.clocks_);
    EXPECT_DOUBLE_EQ(harness.target(CTL_INT), 1.0e9);
    EXPECT_DOUBLE_EQ(harness.target(CTL_FP), 250.0e6);
    EXPECT_NEAR(harness.target(CTL_LS), 500.0e6,
                harness.dvfs_.stepHz());
}

TEST(ProfilingController, RecordsEveryInterval)
{
    ControllerHarness harness;
    ProfilingController profiler;
    profiler.onStart(harness.clocks_);
    for (int i = 0; i < 5; ++i) {
        IntervalStats stats = harness.makeStats(1.0, 0.5, 2.0, 1.2);
        stats.domains[CTL_INT].cycles = 8000;
        stats.domains[CTL_INT].busyCycles = 4000;
        stats.domains[CTL_INT].issued = 9000;
        profiler.onInterval(stats, harness.clocks_);
    }
    ASSERT_EQ(profiler.profile().size(), 5u);
    EXPECT_DOUBLE_EQ(profiler.profile()[0].busyFraction[CTL_INT], 0.5);
    EXPECT_EQ(profiler.profile()[0].issued[CTL_INT], 9000u);
    EXPECT_EQ(profiler.profile()[0].cycles[CTL_INT], 8000u);
}

TEST(ProfilingController, KeepsDomainsAtMaximum)
{
    ControllerHarness harness;
    harness.clocks_.clock(DomainId::Integer).setFrequencyImmediate(
        400e6);
    ProfilingController profiler;
    profiler.onStart(harness.clocks_);
    EXPECT_DOUBLE_EQ(harness.target(CTL_INT), 1.0e9);
}

TEST(ScheduleController, AppliesPerIntervalAndHoldsLast)
{
    ControllerHarness harness;
    std::vector<FrequencyVector> schedule = {
        {1.0e9, 1.0e9, 1.0e9},
        {500.0e6, 1.0e9, 1.0e9},
        {250.0e6, 500.0e6, 1.0e9},
    };
    ScheduleController controller(schedule);
    controller.onStart(harness.clocks_);
    EXPECT_DOUBLE_EQ(harness.target(CTL_INT), 1.0e9);

    controller.onInterval(harness.makeStats(0, 0, 0, 1.0),
                          harness.clocks_);
    EXPECT_NEAR(harness.target(CTL_INT), 500.0e6,
                harness.dvfs_.stepHz());

    controller.onInterval(harness.makeStats(0, 0, 0, 1.0),
                          harness.clocks_);
    EXPECT_DOUBLE_EQ(harness.target(CTL_INT), 250.0e6);
    EXPECT_NEAR(harness.target(CTL_FP), 500.0e6,
                harness.dvfs_.stepHz());

    // Past the end: hold the last entry.
    controller.onInterval(harness.makeStats(0, 0, 0, 1.0),
                          harness.clocks_);
    EXPECT_DOUBLE_EQ(harness.target(CTL_INT), 250.0e6);
}

/** deriveSchedule of one interval on the default (Table 4) machine,
 *  with one margin for every domain. */
std::vector<FrequencyVector>
deriveUniform(const IntervalProfile &profile, const DvfsModel &dvfs,
              double margin)
{
    std::array<double, NUM_CONTROLLED> margins;
    margins.fill(margin);
    return deriveSchedule({profile}, dvfs, margins, CoreConfig{});
}

TEST(DeriveSchedule, MarginOneKeepsEverythingAtMax)
{
    DvfsModel dvfs;
    IntervalProfile profile;
    profile.ipc = 1.0;
    profile.cycles = {1000, 1000, 1000};
    profile.issued = {100, 0, 50};
    profile.avgOccupancy = {1.0, 0.0, 5.0};
    auto schedule = deriveUniform(profile, dvfs, 1.0);
    ASSERT_EQ(schedule.size(), 1u);
    for (int slot = 0; slot < NUM_CONTROLLED; ++slot)
        EXPECT_DOUBLE_EQ(schedule[0][static_cast<std::size_t>(slot)],
                         1.0e9);
}

TEST(DeriveSchedule, IdleDomainDropsToFloorAtZeroMargin)
{
    DvfsModel dvfs;
    IntervalProfile profile;
    profile.ipc = 1.0;
    profile.cycles = {1000, 1000, 1000};
    profile.issued = {4000, 0, 0};
    profile.avgOccupancy = {20.0, 0.0, 0.0};
    auto schedule = deriveUniform(profile, dvfs, 0.0);
    EXPECT_DOUBLE_EQ(schedule[0][CTL_INT], 1.0e9); // saturated
    EXPECT_DOUBLE_EQ(schedule[0][CTL_FP], 250.0e6); // idle -> floor
}

TEST(DeriveSchedule, QueuePressureKeepsDomainFast)
{
    // The memory-bound case: the LS domain issues few ops per cycle
    // but its queue is nearly full, so it must stay fast (the paper's
    // mcf observation).
    DvfsModel dvfs;
    CoreConfig core;
    core.lsqSize = 16;
    IntervalProfile profile;
    profile.ipc = 1.0;
    profile.cycles = {1000, 1000, 1000};
    profile.issued = {100, 0, 100}; // LS bandwidth demand is low
    profile.avgOccupancy = {1.0, 0.0, 15.0}; // LSQ nearly full (16)
    auto schedule = deriveSchedule({profile}, dvfs, {0.0, 0.0, 0.0}, core);
    EXPECT_GT(schedule[0][CTL_LS], 0.9e9);
    EXPECT_LT(schedule[0][CTL_INT], 0.5e9);
}

TEST(DeriveSchedule, MarginIsMonotone)
{
    DvfsModel dvfs;
    IntervalProfile profile;
    profile.ipc = 1.0;
    profile.cycles = {1000, 1000, 1000};
    profile.issued = {1000, 400, 600};
    profile.avgOccupancy = {5.0, 2.0, 10.0};
    double prev = 0.0;
    for (double margin : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
        auto schedule = deriveUniform(profile, dvfs, margin);
        double sum = schedule[0][0] + schedule[0][1] + schedule[0][2];
        EXPECT_GE(sum, prev);
        prev = sum;
    }
}

TEST(DeriveSchedule, PerDomainMarginsApplyIndependently)
{
    // The per-domain overload is the search's refinement knob: each
    // slot's margin must only move its own domain's frequency.
    DvfsModel dvfs;
    IntervalProfile profile;
    profile.ipc = 1.0;
    profile.cycles = {1000, 1000, 1000};
    profile.issued = {400, 400, 400};
    profile.avgOccupancy = {2.0, 2.0, 2.0};

    std::array<double, NUM_CONTROLLED> margins = {0.0, 0.3, 0.8};
    auto schedule = deriveSchedule({profile}, dvfs, margins, CoreConfig{});
    ASSERT_EQ(schedule.size(), 1u);
    // Identical demand per domain, so frequency ordering follows the
    // margin ordering strictly.
    EXPECT_LT(schedule[0][CTL_INT], schedule[0][CTL_FP]);
    EXPECT_LT(schedule[0][CTL_FP], schedule[0][CTL_LS]);

    // Raising one slot's margin must leave the other slots untouched.
    std::array<double, NUM_CONTROLLED> raised = margins;
    raised[CTL_FP] = 0.5;
    auto schedule2 = deriveSchedule({profile}, dvfs, raised, CoreConfig{});
    EXPECT_DOUBLE_EQ(schedule2[0][CTL_INT], schedule[0][CTL_INT]);
    EXPECT_GT(schedule2[0][CTL_FP], schedule[0][CTL_FP]);
    EXPECT_DOUBLE_EQ(schedule2[0][CTL_LS], schedule[0][CTL_LS]);
}

TEST(DeriveSchedule, QueueSizesComeFromTheCore)
{
    DvfsModel dvfs;
    CoreConfig small;
    small.intIqSize = 10;
    small.fpIqSize = 10;
    small.lsqSize = 10;
    IntervalProfile profile;
    profile.ipc = 1.0;
    profile.cycles = {1000, 1000, 1000};
    profile.issued = {100, 100, 100};
    profile.avgOccupancy = {8.0, 8.0, 8.0}; // 80 % of the small queues

    std::array<double, NUM_CONTROLLED> margins = {0.0, 0.0, 0.0};
    auto small_queues = deriveSchedule({profile}, dvfs, margins, small);
    auto default_queues =
        deriveSchedule({profile}, dvfs, margins, CoreConfig{});
    // Smaller queues -> higher relative occupancy -> faster domains.
    for (int slot = 0; slot < NUM_CONTROLLED; ++slot)
        EXPECT_GT(small_queues[0][static_cast<std::size_t>(slot)],
                  default_queues[0][static_cast<std::size_t>(slot)]);
}

TEST(DeriveSchedule, IssueWidthsComeFromTheCore)
{
    // A full integer issue rate on a 2-wide integer cluster demands
    // twice the frequency it would on the default 4-wide one.
    DvfsModel dvfs;
    CoreConfig narrow;
    narrow.intIssueWidth = 2;
    IntervalProfile profile;
    profile.ipc = 1.0;
    profile.cycles = {1000, 1000, 1000};
    profile.issued = {1000, 0, 0};
    profile.avgOccupancy = {0.0, 0.0, 0.0};

    std::array<double, NUM_CONTROLLED> margins = {0.0, 0.0, 0.0};
    auto wide = deriveSchedule({profile}, dvfs, margins, CoreConfig{});
    auto two = deriveSchedule({profile}, dvfs, margins, narrow);
    EXPECT_DOUBLE_EQ(wide[0][CTL_INT], 250.0e6);
    EXPECT_DOUBLE_EQ(two[0][CTL_INT], 500.0e6);
    EXPECT_DOUBLE_EQ(two[0][CTL_LS], wide[0][CTL_LS]);
}

TEST(GateEstimator, ReproducesTable3)
{
    GateEstimator estimator;
    auto rows = estimator.rows();
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_EQ(rows[0].gates, 176); // accumulator
    EXPECT_EQ(rows[1].gates, 192); // comparators
    EXPECT_EQ(rows[2].gates, 80);  // multiplier
    EXPECT_EQ(rows[3].gates, 112); // interval counter
    EXPECT_EQ(rows[4].gates, 28);  // endstop counter
}

TEST(GateEstimator, PerDomainAndTotals)
{
    GateEstimator estimator;
    EXPECT_EQ(estimator.gatesPerDomain(), 476);
    EXPECT_EQ(estimator.sharedGates(), 112);
    EXPECT_EQ(estimator.totalGates(4), 4 * 476 + 112);
    EXPECT_LT(estimator.totalGates(4), 2500); // the paper's claim
}

TEST(GateEstimator, ScalesWithDeviceWidth)
{
    GateEstimatorConfig config;
    config.deviceBits = 32;
    GateEstimator wide(config);
    EXPECT_EQ(wide.rows()[0].gates, 352);
    EXPECT_GT(wide.gatesPerDomain(), 476);
}

} // namespace
} // namespace mcd
