/**
 * @file
 * Unit and property tests for the clock substrate: the Table 1 DVFS
 * model (320-point grid, linear V(f), 49.1 ns/MHz slew, 300 ps sync
 * window), jittered domain clocks, and the cross-domain visibility rule.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "clock/clock_system.hh"
#include "clock/domain_clock.hh"
#include "clock/dvfs_model.hh"
#include "common/serial.hh"

namespace mcd
{
namespace
{

TEST(DvfsModel, Table1Defaults)
{
    DvfsModel dvfs;
    EXPECT_EQ(dvfs.numPoints(), 320);
    EXPECT_DOUBLE_EQ(dvfs.config().freqMax, 1.0e9);
    EXPECT_DOUBLE_EQ(dvfs.config().freqMin, 250.0e6);
    EXPECT_DOUBLE_EQ(dvfs.config().voltMax, 1.20);
    EXPECT_DOUBLE_EQ(dvfs.config().voltMin, 0.65);
    EXPECT_EQ(dvfs.syncWindow(), 300); // 30% of the 1 GHz period
}

TEST(DvfsModel, GridEndpoints)
{
    DvfsModel dvfs;
    EXPECT_DOUBLE_EQ(dvfs.pointFreq(0), 250.0e6);
    EXPECT_DOUBLE_EQ(dvfs.pointFreq(319), 1.0e9);
}

TEST(DvfsModel, GridSpacingIsLinear)
{
    DvfsModel dvfs;
    double step = dvfs.stepHz();
    EXPECT_NEAR(step, (1.0e9 - 250.0e6) / 319.0, 1e-6);
    for (int i = 1; i < 320; ++i)
        EXPECT_NEAR(dvfs.pointFreq(i) - dvfs.pointFreq(i - 1), step,
                    1e-3);
}

TEST(DvfsModel, QuantizeClampsToRange)
{
    DvfsModel dvfs;
    EXPECT_DOUBLE_EQ(dvfs.quantize(5.0e9), 1.0e9);
    EXPECT_DOUBLE_EQ(dvfs.quantize(1.0e6), 250.0e6);
}

TEST(DvfsModel, QuantizeSnapsToNearestPoint)
{
    DvfsModel dvfs;
    // A frequency halfway between two grid points snaps to one of them.
    Hertz f = dvfs.pointFreq(100) + dvfs.stepHz() * 0.4;
    EXPECT_DOUBLE_EQ(dvfs.quantize(f), dvfs.pointFreq(100));
    f = dvfs.pointFreq(100) + dvfs.stepHz() * 0.6;
    EXPECT_DOUBLE_EQ(dvfs.quantize(f), dvfs.pointFreq(101));
}

TEST(DvfsModel, VoltageMapEndpoints)
{
    DvfsModel dvfs;
    EXPECT_DOUBLE_EQ(dvfs.voltage(1.0e9), 1.20);
    EXPECT_DOUBLE_EQ(dvfs.voltage(250.0e6), 0.65);
}

TEST(DvfsModel, VoltageMapLinearMidpoint)
{
    DvfsModel dvfs;
    EXPECT_NEAR(dvfs.voltage(625.0e6), 0.925, 1e-12);
}

TEST(DvfsModel, VoltageClampsOutOfRange)
{
    DvfsModel dvfs;
    EXPECT_DOUBLE_EQ(dvfs.voltage(2.0e9), 1.20);
    EXPECT_DOUBLE_EQ(dvfs.voltage(1.0e3), 0.65);
}

TEST(DvfsModel, SlewTimeMatchesXScaleRate)
{
    DvfsModel dvfs;
    // 750 MHz of change at 49.1 ns/MHz = 36,825 ns.
    EXPECT_EQ(dvfs.slewTime(1.0e9, 250.0e6),
              static_cast<Tick>(750.0 * 49.1 * 1000 + 0.5));
    EXPECT_EQ(dvfs.slewTime(250.0e6, 1.0e9),
              dvfs.slewTime(1.0e9, 250.0e6));
}

class DvfsQuantizeProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(DvfsQuantizeProperty, QuantizedValueIsOnGridAndClosest)
{
    DvfsModel dvfs;
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 200; ++i) {
        Hertz f = rng.uniform(100.0e6, 1.4e9);
        Hertz q = dvfs.quantize(f);
        int idx = dvfs.pointIndex(q);
        EXPECT_DOUBLE_EQ(dvfs.pointFreq(idx), q);
        if (f >= dvfs.config().freqMin && f <= dvfs.config().freqMax) {
            EXPECT_LE(std::abs(q - f), dvfs.stepHz() / 2 + 1e-6);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DvfsQuantizeProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(DomainClock, EdgesAreStrictlyMonotonic)
{
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 1.0e9, 99);
    Tick last = -1;
    for (int i = 0; i < 100000; ++i) {
        Tick edge = clock.advance();
        EXPECT_GT(edge, last);
        last = edge;
    }
}

TEST(DomainClock, JitterFreeClockHasExactPeriod)
{
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 1.0e9, 1, false);
    Tick first = clock.advance();
    for (int i = 1; i <= 1000; ++i)
        EXPECT_EQ(clock.advance(), first + 1000 * i);
}

TEST(DomainClock, MeanPeriodMatchesFrequencyUnderJitter)
{
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 1.0e9, 7);
    Tick start = clock.advance();
    const int n = 200000;
    Tick end = start;
    for (int i = 0; i < n; ++i)
        end = clock.advance();
    double mean_period =
        static_cast<double>(end - start) / static_cast<double>(n);
    EXPECT_NEAR(mean_period, 1000.0, 1.0);
}

TEST(DomainClock, JitterDoesNotAccumulate)
{
    // Edge deviation from the nominal grid stays bounded (the jitter is
    // per-edge, not a random walk of the period).
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 1.0e9, 21, true);
    for (int i = 1; i <= 50000; ++i) {
        Tick edge = clock.advance();
        double nominal = static_cast<double>(i - 1) * 1000.0;
        EXPECT_LT(std::abs(static_cast<double>(edge) - nominal),
                  2000.0);
    }
}

TEST(DomainClock, DeterministicPerSeed)
{
    DvfsModel dvfs;
    DomainClock a(DomainId::Integer, dvfs, 1.0e9, 5);
    DomainClock b(DomainId::Integer, dvfs, 1.0e9, 5);
    for (int i = 0; i < 10000; ++i)
        EXPECT_EQ(a.advance(), b.advance());
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

TEST(DomainClock, EdgeStreamDigest)
{
    // The FNV-1a digest of 200k edge times pins the jitter draws, the
    // slew and the period arithmetic bit for bit. A retarget every
    // 4096 edges alternates the ends of the range, so most edges slew;
    // one immediate jump lands in between. Mid-slew, the clock is
    // saved and restored into a clock built with another seed and
    // start frequency, which must continue the identical stream.
    constexpr int EDGES = 200000;
    constexpr int JUMP_AT = 50000;
    constexpr int ROUND_TRIP_AT = 100100;
    DvfsModel dvfs;
    const DvfsConfig &dc = dvfs.config();
    DomainClock original(DomainId::LoadStore, dvfs, dc.freqMax, 42);
    DomainClock restored(DomainId::LoadStore, dvfs, dc.freqMin, 7);
    DomainClock *clock = &original;
    std::string stream;
    for (int i = 0; i < EDGES; ++i) {
        if (i % 4096 == 0) {
            Hertz target = (i / 4096) % 2 ? dc.freqMax : dc.freqMin;
            original.setTargetFrequency(target);
            restored.setTargetFrequency(target);
        }
        if (i == JUMP_AT)
            original.setFrequencyImmediate(600.0e6);
        if (i == ROUND_TRIP_AT) {
            ASSERT_TRUE(original.slewing());
            std::string blob;
            original.saveState(blob);
            serial::Reader in(blob);
            ASSERT_TRUE(restored.loadState(in));
            ASSERT_TRUE(in.atEnd());
            clock = &restored;
        }
        Tick edge = clock->advance();
        if (clock == &restored) {
            ASSERT_EQ(original.advance(), edge) << "edge " << i;
            ASSERT_EQ(original.frequency(), restored.frequency());
        }
        serial::appendI64(stream, edge);
    }
    EXPECT_EQ(hex(0xc99d5315c500f5dbull), hex(serial::fnv1a(stream)));
}

/** `blob` with the 8 bytes at `offset` replaced by `value`'s. */
template <typename T>
std::string
overwrite(std::string blob, std::size_t offset, T value)
{
    static_assert(sizeof(T) == 8);
    std::string bytes;
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    serial::appendU64(bytes, bits);
    blob.replace(offset, bytes.size(), bytes);
    return blob;
}

TEST(DomainClock, LoadStateRejectsBadFrequenciesAndEdges)
{
    // saveState's layout: cur_freq, target_freq, nominal, next_edge,
    // last_edge, ... A rejected blob must leave the clock as it was.
    constexpr std::size_t CUR_FREQ = 0;
    constexpr std::size_t TARGET_FREQ = 8;
    constexpr std::size_t NEXT_EDGE = 24;
    constexpr std::size_t LAST_EDGE = 32;
    DvfsModel dvfs;
    const DvfsConfig &dc = dvfs.config();
    DomainClock saved(DomainId::Integer, dvfs, dc.freqMax, 3);
    saved.setTargetFrequency(dc.freqMin);
    for (int i = 0; i < 100; ++i)
        saved.advance();
    ASSERT_TRUE(saved.slewing());
    std::string blob;
    saved.saveState(blob);

    DomainClock clock(DomainId::Integer, dvfs, 600.0e6, 11);
    DomainClock twin(DomainId::Integer, dvfs, 600.0e6, 11);
    auto rejects = [&](const std::string &bad) {
        serial::Reader in(bad);
        return !clock.loadState(in);
    };

    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t field : {CUR_FREQ, TARGET_FREQ}) {
        for (double freq : {0.0, -0.0, -1.0e9, dc.freqMin / 2,
                            dc.freqMax * 2, inf, -inf,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::denorm_min()}) {
            EXPECT_TRUE(rejects(overwrite(blob, field, freq)))
                << "field " << field << " = " << freq;
        }
    }
    Tick last = saved.lastEdge();
    EXPECT_TRUE(rejects(overwrite(blob, NEXT_EDGE, last)));
    EXPECT_TRUE(rejects(overwrite(blob, NEXT_EDGE, last - 1)));
    EXPECT_TRUE(rejects(overwrite(blob, LAST_EDGE, saved.nextEdge())));
    EXPECT_TRUE(rejects(blob.substr(0, blob.size() - 1)));
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(twin.advance(), clock.advance());

    // The genuine blob still loads and continues the saved stream,
    // and so do the range's endpoints.
    serial::Reader in(blob);
    ASSERT_TRUE(clock.loadState(in));
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(saved.advance(), clock.advance());
    for (double freq : {dc.freqMin, dc.freqMax}) {
        EXPECT_FALSE(rejects(overwrite(blob, CUR_FREQ, freq)));
        EXPECT_FALSE(rejects(overwrite(blob, TARGET_FREQ, freq)));
    }
}

TEST(DomainClock, SlewReachesTargetGradually)
{
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 1.0e9, 3, false);
    clock.setTargetFrequency(500.0e6);
    EXPECT_TRUE(clock.slewing());
    EXPECT_DOUBLE_EQ(clock.frequency(), 1.0e9); // not yet moved

    // 500 MHz of change needs 49.1 ns/MHz = 24,550 ns of clock time.
    Tick expected_slew = dvfs.slewTime(1.0e9, 500.0e6);
    Tick start = clock.lastEdge();
    int guard = 0;
    while (clock.slewing() && guard++ < 100000)
        clock.advance();
    EXPECT_FALSE(clock.slewing());
    EXPECT_DOUBLE_EQ(clock.frequency(), dvfs.quantize(500.0e6));
    Tick elapsed = clock.lastEdge() - start;
    EXPECT_NEAR(static_cast<double>(elapsed),
                static_cast<double>(expected_slew),
                static_cast<double>(expected_slew) * 0.05 + 3000);
}

TEST(DomainClock, FrequencyMonotoneDuringSlew)
{
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 400.0e6, 3, false);
    clock.setTargetFrequency(900.0e6);
    double prev = clock.frequency();
    while (clock.slewing()) {
        clock.advance();
        EXPECT_GE(clock.frequency(), prev - 1e-6);
        prev = clock.frequency();
    }
    EXPECT_DOUBLE_EQ(clock.frequency(), dvfs.quantize(900.0e6));
}

TEST(DomainClock, ExecutesThroughFrequencyChange)
{
    // The XScale model: the clock keeps producing edges during a slew.
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 1.0e9, 3, false);
    clock.setTargetFrequency(250.0e6);
    std::uint64_t before = clock.cycles();
    for (int i = 0; i < 1000; ++i)
        clock.advance();
    EXPECT_EQ(clock.cycles(), before + 1000);
}

TEST(DomainClock, SetFrequencyImmediateSkipsSlew)
{
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 1.0e9, 3, false);
    clock.setFrequencyImmediate(500.0e6);
    EXPECT_FALSE(clock.slewing());
    EXPECT_DOUBLE_EQ(clock.frequency(), dvfs.quantize(500.0e6));
}

TEST(DomainClock, TargetIsQuantized)
{
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 1.0e9, 3, false);
    Hertz q = clock.setTargetFrequency(501.234e6);
    EXPECT_DOUBLE_EQ(q, dvfs.quantize(501.234e6));
    EXPECT_DOUBLE_EQ(clock.targetFrequency(), q);
}

TEST(DomainClock, FrequencyChangeCounter)
{
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 1.0e9, 3, false);
    EXPECT_EQ(clock.frequencyChanges(), 0u);
    clock.setTargetFrequency(900.0e6);
    clock.setTargetFrequency(900.0e6); // no-op: same target
    clock.setTargetFrequency(800.0e6);
    EXPECT_EQ(clock.frequencyChanges(), 2u);
}

TEST(DomainClock, VoltageTracksFrequency)
{
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 1.0e9, 3, false);
    EXPECT_DOUBLE_EQ(clock.voltage(), 1.20);
    clock.setFrequencyImmediate(250.0e6);
    EXPECT_DOUBLE_EQ(clock.voltage(), 0.65);
}

/** A clock's saved bytes (its whole edge-generating state). */
std::string
savedBytes(const DomainClock &clock)
{
    std::string blob;
    clock.saveState(blob);
    return blob;
}

/**
 * Calm clocks in every state skip() must handle: jittered or not, at
 * the grid's minimum and maximum frequency, after an immediate
 * frequency jump (the pending edge was drawn at the old period), and
 * after a slew has finished.
 */
std::vector<std::pair<std::string, DomainClock>>
calmClocks(const DvfsModel &dvfs)
{
    const DvfsConfig &dc = dvfs.config();
    std::vector<std::pair<std::string, DomainClock>> clocks;
    for (bool jittered : {true, false}) {
        std::string tag = jittered ? "jittered " : "jitter-free ";
        for (Hertz freq : {dc.freqMin, dc.freqMax}) {
            DomainClock clock(DomainId::LoadStore, dvfs, freq, 11,
                              jittered);
            for (int i = 0; i < 5; ++i)
                clock.advance();
            clocks.emplace_back(tag + std::to_string(freq), clock);
        }
        DomainClock jumped_down(DomainId::FrontEnd, dvfs, dc.freqMax, 12,
                                jittered);
        for (int i = 0; i < 37; ++i)
            jumped_down.advance();
        jumped_down.setFrequencyImmediate(dc.freqMin);
        clocks.emplace_back(tag + "jumped down", jumped_down);

        DomainClock jumped_up(DomainId::Integer, dvfs, dc.freqMin, 13,
                              jittered);
        jumped_up.advance();
        jumped_up.setFrequencyImmediate(dc.freqMax);
        clocks.emplace_back(tag + "jumped up", jumped_up);

        for (Hertz target : {dc.freqMin, 700.0e6}) {
            DomainClock slewed(DomainId::FloatingPoint, dvfs,
                               target == dc.freqMin ? dc.freqMax
                                                    : dc.freqMin,
                               14, jittered);
            slewed.setTargetFrequency(target);
            while (slewed.slewing())
                slewed.advance();
            clocks.emplace_back(tag + "slewed to " +
                                    std::to_string(target),
                                slewed);
        }
    }
    return clocks;
}

TEST(DomainClock, SkipIsAdvanceInBulk)
{
    DvfsModel dvfs;
    for (const auto &[name, start] : calmClocks(dvfs)) {
        ASSERT_TRUE(start.calm()) << name;
        for (std::uint64_t k : {1u, 2u, 3u, 17u, 1000u}) {
            DomainClock skipped = start;
            DomainClock stepped = start;
            skipped.skip(k);
            for (std::uint64_t i = 0; i < k; ++i)
                stepped.advance();
            ASSERT_EQ(savedBytes(stepped), savedBytes(skipped))
                << name << ", k = " << k;
            EXPECT_EQ(stepped.lastEdge(), skipped.lastEdge());
            EXPECT_EQ(stepped.cycles(), skipped.cycles());
            EXPECT_TRUE(skipped.calm()) << name << ", k = " << k;
            for (int i = 0; i < 10000; ++i) {
                ASSERT_EQ(stepped.advance(), skipped.advance())
                    << name << ", k = " << k << ", edge " << i;
            }
        }
    }
}

TEST(DomainClock, SkipBoundsHoldForEveryEdge)
{
    // earliestEdge() never lies after the edge it bounds, and the edges
    // edgesBefore() counts all fall before its limit.
    DvfsModel dvfs;
    for (const auto &[name, start] : calmClocks(dvfs)) {
        DomainClock clock = start;
        std::uint64_t first = clock.cycles() + 1;
        std::vector<Tick> bounds;
        for (std::uint64_t c = first; c < first + 2000; ++c)
            bounds.push_back(clock.earliestEdge(c));
        EXPECT_EQ(clock.nextEdge(), bounds.front()) << name;
        EXPECT_EQ(clock.nextEdge(), clock.earliestEdge(first - 1));
        for (Tick bound : bounds)
            ASSERT_LE(bound, clock.advance()) << name;

        for (Tick ahead : {Tick{0}, Tick{1}, Tick{999}, Tick{123457}}) {
            DomainClock probe = start;
            Tick limit = probe.nextEdge() + ahead;
            std::uint64_t k = probe.edgesBefore(limit);
            if (ahead == 0) {
                EXPECT_EQ(0u, k) << name;
            }
            probe.skip(k);
            if (k > 0) {
                EXPECT_LT(probe.lastEdge(), limit) << name;
            }
            // Edges within maxJitter() of the limit may fall on either
            // side; a period above 2 x maxJitter() holds at most one.
            std::uint64_t missed = 0;
            while (probe.advance() < limit)
                ++missed;
            EXPECT_LE(missed, 1u) << name << ", ahead " << ahead;
        }
    }
}

TEST(DomainClock, TwoEdgesBeforeMatchesEdgesBefore)
{
    DvfsModel dvfs;
    for (const auto &[name, clock] : calmClocks(dvfs)) {
        Tick span = 3 * periodFromFreq(clock.frequency()) +
                    2 * clock.maxJitter();
        for (Tick limit = clock.nextEdge() - 2;
             limit < clock.nextEdge() + span; ++limit) {
            ASSERT_EQ(clock.edgesBefore(limit) >= 2,
                      clock.twoEdgesBefore(limit))
                << name << ", limit " << limit;
        }
        EXPECT_TRUE(clock.twoEdgesBefore(MAX_TICK)) << name;
    }
}

TEST(DomainClock, CalmOnlyWhenSkipIsExact)
{
    DvfsModel dvfs;
    DomainClock clock(DomainId::Integer, dvfs, 1.0e9, 5);
    EXPECT_TRUE(clock.calm());
    EXPECT_GT(clock.maxJitter(), 0);
    clock.setTargetFrequency(dvfs.config().freqMin);
    EXPECT_FALSE(clock.calm()); // slewing
    for (int i = 0; i < 1000; ++i) {
        clock.advance();
        if (clock.slewing()) {
            ASSERT_FALSE(clock.calm());
        }
    }

    DomainClock ideal(DomainId::Integer, dvfs, 1.0e9, 5, false);
    EXPECT_EQ(0, ideal.maxJitter());
    EXPECT_TRUE(ideal.calm());

    // Jitter wide enough that the monotonic clamp may bind between two
    // edges at the top frequency: period < 2 x maxJitter + 2.
    DvfsConfig wide;
    wide.jitterSigmaPs = 500.0;
    DvfsModel noisy(wide);
    DomainClock fast(DomainId::Integer, noisy, wide.freqMax, 5);
    EXPECT_LT(periodFromFreq(fast.frequency()),
              2 * fast.maxJitter() + 2);
    EXPECT_FALSE(fast.calm());
    for (int i = 0; i < 1000; ++i) {
        fast.advance();
        ASSERT_FALSE(fast.calm());
    }
}

TEST(ClockSystem, McdModeHasIndependentClocks)
{
    DvfsModel dvfs;
    ClockSystem clocks(dvfs, ClockSystemConfig{});
    EXPECT_FALSE(clocks.sameClock(DomainId::FrontEnd,
                                  DomainId::Integer));
    EXPECT_TRUE(clocks.sameClock(DomainId::Integer,
                                 DomainId::Integer));
    clocks.clock(DomainId::Integer).setFrequencyImmediate(500.0e6);
    EXPECT_DOUBLE_EQ(clocks.clock(DomainId::FrontEnd).frequency(),
                     1.0e9);
}

TEST(ClockSystem, SynchronousModeSharesOneClock)
{
    DvfsModel dvfs;
    ClockSystemConfig config;
    config.mode = ClockMode::Synchronous;
    ClockSystem clocks(dvfs, config);
    EXPECT_TRUE(clocks.sameClock(DomainId::FrontEnd,
                                 DomainId::LoadStore));
    clocks.clock(DomainId::Integer).setFrequencyImmediate(500.0e6);
    EXPECT_DOUBLE_EQ(clocks.clock(DomainId::FrontEnd).frequency(),
                     dvfs.quantize(500.0e6));
}

TEST(ClockSystem, TheExternalDomainHasNoClock)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    DvfsModel dvfs;
    for (ClockMode mode : {ClockMode::Mcd, ClockMode::Synchronous}) {
        ClockSystemConfig config;
        config.mode = mode;
        ClockSystem clocks(dvfs, config);
        const ClockSystem &view = clocks;
        EXPECT_DEATH(clocks.clock(DomainId::External),
                     "the external domain has no controllable clock");
        EXPECT_DEATH(view.clock(DomainId::External),
                     "the external domain has no controllable clock");
    }
}

TEST(ClockSystem, VisibilityWithinSameClockIsImmediate)
{
    DvfsModel dvfs;
    ClockSystemConfig config;
    config.mode = ClockMode::Synchronous;
    ClockSystem clocks(dvfs, config);
    EXPECT_TRUE(clocks.visible(DomainId::Integer, 1000,
                               DomainId::FrontEnd, 1000));
    EXPECT_FALSE(clocks.visible(DomainId::Integer, 1000,
                                DomainId::FrontEnd, 999));
}

TEST(ClockSystem, CrossClockVisibilityHonorsSyncWindow)
{
    DvfsModel dvfs;
    ClockSystem clocks(dvfs, ClockSystemConfig{});
    // Written at t=1000: readable only at edges >= 1300.
    EXPECT_FALSE(clocks.visible(DomainId::Integer, 1000,
                                DomainId::FrontEnd, 1299));
    EXPECT_TRUE(clocks.visible(DomainId::Integer, 1000,
                               DomainId::FrontEnd, 1300));
    EXPECT_FALSE(clocks.visible(DomainId::Integer, 1000,
                                DomainId::FrontEnd, 900));
}

TEST(ClockSystem, SameDomainNeverPaysSyncWindow)
{
    DvfsModel dvfs;
    ClockSystem clocks(dvfs, ClockSystemConfig{});
    EXPECT_TRUE(clocks.visible(DomainId::Integer, 1000,
                               DomainId::Integer, 1001));
}

TEST(ClockSystem, SyncWindowZeroInSynchronousMode)
{
    DvfsModel dvfs;
    ClockSystemConfig config;
    config.mode = ClockMode::Synchronous;
    ClockSystem clocks(dvfs, config);
    EXPECT_EQ(clocks.syncWindow(), 0);
}

class ClockFrequencyProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(ClockFrequencyProperty, MeanPeriodTracksEveryGridFrequency)
{
    DvfsModel dvfs;
    Hertz f = dvfs.quantize(GetParam());
    DomainClock clock(DomainId::LoadStore, dvfs, f, 17);
    Tick start = clock.advance();
    const int n = 20000;
    Tick end = start;
    for (int i = 0; i < n; ++i)
        end = clock.advance();
    double mean_period =
        static_cast<double>(end - start) / static_cast<double>(n);
    EXPECT_NEAR(mean_period, 1e12 / f, 1e12 / f * 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Frequencies, ClockFrequencyProperty,
    ::testing::Values(250.0e6, 333.0e6, 500.0e6, 625.0e6, 750.0e6,
                      875.0e6, 1.0e9));

} // namespace
} // namespace mcd
