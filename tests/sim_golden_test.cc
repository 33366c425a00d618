/**
 * @file
 * Golden results for the cycle loop. Each case pins the FNV-1a digest
 * of `encodeArtifact(SimStats)` for a short run (20k measured + 5k
 * warm-up instructions) chosen to stress the stalled-cycle paths:
 * memory-bound apps uncontrolled, frequencies slewing under
 * Attack/Decay while the core waits on memory, the synchronous chip,
 * a load/store domain clocked at the minimum frequency, a
 * non-pipelined divide unit that stays busy for many cycles, a
 * parametric synthetic, a checkpoint taken at an odd commit count
 * while a miss is outstanding, and runs of stalled edges that cross a
 * frequency change: every clock slewing to the minimum between two
 * runTo calls (four clocks, or the one shared synchronous clock), and
 * a schedule that jumps frequencies at every interval boundary. The
 * issue-select paths are pinned too: an FP-heavy app under
 * Attack/Decay, clocks moved between runs while a domain sits idle,
 * store-to-load aliasing through the LSQ, and a checkpoint taken while
 * queue entries wait on registers not yet written. So are the calm
 * quiet runs a clock skips in one call: chains of integer divides,
 * whose runs end at cycle deadlines, and mcf with frequencies jumped
 * between runs, each in both clocking modes. Jitter-free MCD runs pin
 * the order in which domains that left the edge race catch up: there
 * every edge ties with the other domains' edges.
 *
 * A change meant to make the simulator faster without changing what
 * it simulates must leave every digest as it is. A changed digest
 * means the simulated machine behaves differently; the failure
 * message prints the new value.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "control/basic_controllers.hh"
#include "control/controller_registry.hh"
#include "core/simulator.hh"
#include "harness/artifact.hh"
#include "harness/experiment.hh"
#include "workload/benchmark_factory.hh"
#include "workload/workload.hh"

namespace mcd
{
namespace
{

constexpr std::uint64_t MEASURED = 20000;
constexpr std::uint64_t WARMUP = 5000;

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

std::uint64_t
digest(const SimStats &stats)
{
    return serial::fnv1a(encodeArtifact(stats));
}

void
expectDigest(const SimStats &stats, std::uint64_t golden)
{
    EXPECT_EQ(hex(golden), hex(digest(stats)));
}

/** A run through the standard experiment path (warm-up uncontrolled,
 *  controller engaged at the measurement boundary). */
SimStats
experiment(const std::string &bench, const std::string &controller,
           ClockMode mode = ClockMode::Mcd, bool jitter = true)
{
    ExperimentSpec spec;
    spec.benchmark = bench;
    spec.mode = mode;
    spec.controller = parseControllerSpec(controller);
    spec.config.instructions = MEASURED;
    spec.config.warmup = WARMUP;
    spec.config.intervalInstructions = 500;
    spec.config.jitter = jitter;
    ArtifactCache fresh; // straight through: no shared warm-up
    return runExperiment(spec, fresh);
}

/** Back-to-back dependent FP divides: the divide unit is busy for
 *  most cycles and the FP queue waits on it. */
TraceWorkload
fpDivideTrace()
{
    std::vector<MicroOp> ops;
    std::uint64_t pc = 0x1000;
    for (int i = 0; i < 20; ++i) {
        MicroOp op;
        op.pc = pc;
        pc += 4;
        op.cls = OpClass::FpDiv;
        op.srcA = 32 + ((i + 19) % 20);
        op.dst = 32 + (i % 20);
        ops.push_back(op);
    }
    MicroOp back;
    back.pc = pc;
    back.cls = OpClass::Branch;
    back.srcA = 0;
    back.taken = true;
    back.target = 0x1000;
    ops.push_back(back);
    return TraceWorkload("divs", ops);
}

/** Stores and loads that alias through the LSQ: a store whose address
 *  waits on a divide, a load behind it, a matching store whose data
 *  arrives late, two matching stores where the newest forwards, and an
 *  FP store/load pair. */
TraceWorkload
aliasingTrace()
{
    std::vector<MicroOp> ops;
    std::uint64_t pc = 0x2000;
    auto add = [&](OpClass cls, int dst, int src_a, int src_b,
                   std::uint64_t addr = 0) {
        MicroOp op;
        op.pc = pc;
        pc += 4;
        op.cls = cls;
        op.dst = dst;
        op.srcA = src_a;
        op.srcB = src_b;
        op.memAddr = addr;
        ops.push_back(op);
    };
    add(OpClass::IntDiv, 5, 5, 6);             // slow address
    add(OpClass::Store, NO_REG, 5, 7, 0x8000); // unknown address
    add(OpClass::Load, 8, 0, NO_REG, 0x9000);  // blocked behind it
    add(OpClass::IntMult, 9, 9, 10);           // late data
    add(OpClass::Store, NO_REG, 0, 9, 0xa000);
    add(OpClass::Load, 11, 0, NO_REG, 0xa004); // same word, waits
    add(OpClass::IntAlu, 12, 12, 0);
    add(OpClass::Store, NO_REG, 0, 12, 0xb000);
    add(OpClass::IntAlu, 13, 12, 0);
    add(OpClass::Store, NO_REG, 0, 13, 0xb000);
    add(OpClass::Load, 14, 0, NO_REG, 0xb000); // newest store forwards
    add(OpClass::Load, 15, 0, NO_REG, 0xb008); // next word: no match
    add(OpClass::FpAdd, 33, 33, 34);
    add(OpClass::FpStore, NO_REG, 0, 33, 0xc000);
    add(OpClass::FpLoad, 35, 0, NO_REG, 0xc000);
    add(OpClass::IntAlu, 16, 8, 11);
    add(OpClass::IntAlu, 17, 14, 15);
    MicroOp back;
    back.pc = pc;
    back.cls = OpClass::Branch;
    back.srcA = 0;
    back.taken = true;
    back.target = 0x2000;
    ops.push_back(back);
    return TraceWorkload("aliasing", ops);
}

TEST(SimGolden, MemoryBoundAppsUncontrolled)
{
    expectDigest(experiment("mcf", "none"), 0x3c5588c5e8b3d9a6ull);
    expectDigest(experiment("em3d", "none"), 0xc3c2264b2f199e26ull);
    expectDigest(experiment("health", "none"), 0xabf2d5039784e7acull);
}

TEST(SimGolden, McfUnderAttackDecay)
{
    // Frequencies slew edge by edge while the core is stalled.
    expectDigest(experiment("mcf", "attack_decay"),
                 0x84745f0c423bca3aull);
}

TEST(SimGolden, McfSynchronous)
{
    expectDigest(experiment("mcf", "none", ClockMode::Synchronous),
                 0x3c4deafd45a91116ull);
}

TEST(SimGolden, SyntheticMarkov)
{
    expectDigest(experiment("synthetic:markov=8,mem=0.5", "none"),
                 0x0f5b0ca7483168b4ull);
}

TEST(SimGolden, FpHeavyUnderAttackDecay)
{
    expectDigest(experiment("power", "attack_decay"),
                 0x8849a9eca21ffacbull);
}

TEST(SimGolden, LoadStoreDomainAtMinimumFrequency)
{
    auto workload = BenchmarkFactory::create("mcf", MEASURED + WARMUP);
    SimConfig config;
    Simulator sim(config, *workload);
    sim.clocks().clock(DomainId::LoadStore).setFrequencyImmediate(
        config.dvfs.freqMin);
    sim.runTo(MEASURED + WARMUP);
    expectDigest(sim.stats(), 0x56b6b772ad2eedb6ull);
}

TEST(SimGolden, FpDivideOccupiesUnit)
{
    for (ClockMode mode : {ClockMode::Synchronous, ClockMode::Mcd}) {
        TraceWorkload trace = fpDivideTrace();
        SimConfig config;
        config.clocks.mode = mode;
        Simulator sim(config, trace);
        sim.runTo(4000);
        expectDigest(sim.stats(), mode == ClockMode::Synchronous
                                      ? 0x72bcb85533d721edull
                                      : 0x282c76953cdf7e43ull);
    }
}

TEST(SimGolden, StoreLoadAliasing)
{
    for (ClockMode mode : {ClockMode::Synchronous, ClockMode::Mcd}) {
        TraceWorkload trace = aliasingTrace();
        SimConfig config;
        config.clocks.mode = mode;
        Simulator sim(config, trace);
        sim.runTo(6000);
        expectDigest(sim.stats(), mode == ClockMode::Synchronous
                                      ? 0x14609da16e24cbaeull
                                      : 0x4a6c9dd3f2edb3d2ull);
    }
}

TEST(SimGolden, GsmClocksMovedBetweenRuns)
{
    // gsm leaves the FP domain idle, so its edges between the two runs
    // and after the move charge cycles with no stage running.
    auto workload = BenchmarkFactory::create("gsm", MEASURED + WARMUP);
    SimConfig config;
    Simulator sim(config, *workload);
    sim.runTo(7001);
    sim.clocks().clock(DomainId::Integer).setFrequencyImmediate(600.0e6);
    sim.clocks().clock(DomainId::FloatingPoint)
        .setFrequencyImmediate(config.dvfs.freqMin);
    sim.clocks().clock(DomainId::LoadStore).setFrequencyImmediate(
        450.0e6);
    sim.runTo(MEASURED + WARMUP);
    expectDigest(sim.stats(), 0xd8e0117c48373f3eull);
}

TEST(SimGolden, CheckpointWithWaitingQueuesResumesExactly)
{
    // 9999 is odd and lands while gsm's issue queues and LSQ hold
    // entries waiting on registers not yet written.
    constexpr std::uint64_t STOP = 9999;
    constexpr std::uint64_t END = MEASURED + WARMUP;

    auto straight_workload = BenchmarkFactory::create("gsm", END);
    Simulator straight(SimConfig{}, *straight_workload);
    straight.runTo(END);

    std::string snapshot;
    {
        auto workload = BenchmarkFactory::create("gsm", END);
        Simulator sim(SimConfig{}, *workload);
        sim.runTo(STOP);
        sim.saveCheckpoint(snapshot);
    }
    auto workload = BenchmarkFactory::create("gsm", END);
    Simulator resumed(SimConfig{}, *workload);
    serial::Reader in(snapshot);
    ASSERT_TRUE(resumed.restoreCheckpoint(in));
    resumed.runTo(END);

    EXPECT_EQ(hex(digest(straight.stats())),
              hex(digest(resumed.stats())));
    expectDigest(resumed.stats(), 0x03b40557f73f201eull);
}

TEST(SimGolden, CheckpointMidMissResumesExactly)
{
    // 12347 is odd and lands while mcf has a load miss in flight, so
    // the snapshot carries pending execution deadlines.
    constexpr std::uint64_t STOP = 12347;
    constexpr std::uint64_t END = MEASURED + WARMUP;

    auto straight_workload = BenchmarkFactory::create("mcf", END);
    Simulator straight(SimConfig{}, *straight_workload);
    straight.runTo(END);

    std::string snapshot;
    {
        auto workload = BenchmarkFactory::create("mcf", END);
        Simulator sim(SimConfig{}, *workload);
        sim.runTo(STOP);
        sim.saveCheckpoint(snapshot);
    }
    auto workload = BenchmarkFactory::create("mcf", END);
    Simulator resumed(SimConfig{}, *workload);
    serial::Reader in(snapshot);
    ASSERT_TRUE(resumed.restoreCheckpoint(in));
    resumed.runTo(END);

    EXPECT_EQ(hex(digest(straight.stats())),
              hex(digest(resumed.stats())));
    expectDigest(resumed.stats(), 0x6ecf53df115ca70eull);
}

/** mcf from a cold start to `STOP`, then every clock retargeted to
 *  the minimum frequency and run on to the end: the slew proceeds
 *  edge by edge while the core waits on memory. */
SimStats
mcfSlewingToMinimum(ClockMode mode)
{
    constexpr std::uint64_t STOP = 8000;
    auto workload = BenchmarkFactory::create("mcf", MEASURED + WARMUP);
    SimConfig config;
    config.clocks.mode = mode;
    Simulator sim(config, *workload);
    sim.runTo(STOP);
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        sim.clocks()
            .clock(static_cast<DomainId>(d))
            .setTargetFrequency(config.dvfs.freqMin);
    }
    sim.runTo(MEASURED + WARMUP);
    return sim.stats();
}

TEST(SimGolden, McfSlewsToMinimumBetweenRuns)
{
    expectDigest(mcfSlewingToMinimum(ClockMode::Mcd),
                 0x1db4c72e77a82129ull);
}

TEST(SimGolden, McfSynchronousSlewsToMinimumBetweenRuns)
{
    // One shared clock: the slew crosses edges on which all four
    // domains are stalled.
    expectDigest(mcfSlewingToMinimum(ClockMode::Synchronous),
                 0x2139f80578a4a691ull);
}

TEST(SimGolden, McfUnderAlternatingSchedule)
{
    // setFrequencyImmediate at every interval boundary, alternating
    // two frequency vectors.
    ExperimentSpec spec;
    spec.benchmark = "mcf";
    spec.controller.name = "schedule";
    for (int i = 0; i < 60; ++i) {
        spec.controller.schedule.push_back(
            i % 2 ? FrequencyVector{1.0e9, 250.0e6, 400.0e6}
                  : FrequencyVector{500.0e6, 1.0e9, 750.0e6});
    }
    spec.config.instructions = MEASURED;
    spec.config.warmup = WARMUP;
    spec.config.intervalInstructions = 500;
    ArtifactCache fresh; // straight through: no shared warm-up
    expectDigest(runExperiment(spec, fresh), 0x4afe267cfff27bdcull);
}

/** Two interleaved chains of dependent integer divides, a load that
 *  waits on the first and an add that waits on both: the integer
 *  domain's quiet runs end at cycle deadlines (the divide latency and
 *  the unit's busy cycles) rather than at edge times. */
TraceWorkload
intDivideChainTrace()
{
    std::vector<MicroOp> ops;
    std::uint64_t pc = 0x3000;
    auto add = [&](OpClass cls, int dst, int src_a, int src_b,
                   std::uint64_t addr = 0) {
        MicroOp op;
        op.pc = pc;
        pc += 4;
        op.cls = cls;
        op.dst = dst;
        op.srcA = src_a;
        op.srcB = src_b;
        op.memAddr = addr;
        ops.push_back(op);
    };
    for (int i = 0; i < 6; ++i) {
        add(OpClass::IntDiv, 1 + i % 3, 1 + (i + 2) % 3, 7);
        add(OpClass::IntDiv, 4 + i % 3, 4 + (i + 2) % 3, 7);
    }
    add(OpClass::Load, 8, 3, NO_REG, 0x10000);
    add(OpClass::IntAlu, 9, 6, 8);
    MicroOp back;
    back.pc = pc;
    back.cls = OpClass::Branch;
    back.srcA = 0;
    back.taken = true;
    back.target = 0x3000;
    ops.push_back(back);
    return TraceWorkload("intdivs", ops);
}

TEST(SimGolden, IntDivideChains)
{
    for (ClockMode mode : {ClockMode::Synchronous, ClockMode::Mcd}) {
        TraceWorkload trace = intDivideChainTrace();
        SimConfig config;
        config.clocks.mode = mode;
        Simulator sim(config, trace);
        sim.runTo(3000);
        EXPECT_GT(sim.skippedEdges(DomainId::Integer), 0u);
        expectDigest(sim.stats(), mode == ClockMode::Synchronous
                                      ? 0x1d9582d3d6264a69ull
                                      : 0x187976977fd0f057ull);
    }
}

TEST(SimGolden, JitterFreeMcdRuns)
{
    // Without jitter, clocks at one frequency put every domain's edge
    // at the same time: each edge is a four-way tie, so lazy domains
    // catch up under the race's tie order. gsm leaves the FP domain
    // asleep, epic wakes it between phases, and mcf stalls all four
    // domains on memory; Attack/Decay slews clocks apart again.
    struct Case
    {
        const char *bench;
        const char *controller;
        std::uint64_t golden;
    };
    const Case cases[] = {
        {"gsm", "none", 0xb5bf097c2279b3bfull},
        {"gsm", "attack_decay", 0xe40a5a02faef3aa8ull},
        {"epic", "none", 0xed846c1e28fc11beull},
        {"epic", "attack_decay", 0x9bfaa25739dbc03dull},
        {"mcf", "none", 0xa7d3cd0fd4f7840aull},
        {"mcf", "attack_decay", 0x1659f4ab9782ae19ull},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.bench) + " under " + c.controller);
        expectDigest(experiment(c.bench, c.controller, ClockMode::Mcd,
                                false),
                     c.golden);
    }
}

TEST(SimGolden, IntervalSamples)
{
    // Every field of every interval sample: the per-domain cycle,
    // busy-cycle and occupancy sums that quiet edges charge in bulk,
    // which uncontrolled stats do not show. A committed load leaves the
    // LSQ without waking the load/store domain, so a domain out of the
    // edge race must charge its edges at the old occupancy first.
    struct Case
    {
        const char *bench;
        const char *controller;
        std::uint64_t golden;
    };
    const Case cases[] = {
        {"mcf", "none", 0x524352429e0011e0ull},
        {"mcf", "attack_decay", 0x6ae3c39c71299c5cull},
        {"em3d", "none", 0x4e4fb7952e2d48ccull},
        {"epic", "attack_decay", 0x7b581c1e7aa62e9bull},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.bench) + " under " + c.controller);
        std::unique_ptr<FrequencyController> controller;
        if (std::string(c.controller) != "none")
            controller = ControllerRegistry::instance().create(
                parseControllerSpec(c.controller));
        auto workload = BenchmarkFactory::create(c.bench, MEASURED);
        SimConfig config;
        config.core.intervalInstructions = 500;
        Simulator sim(config, *workload, controller.get());
        std::string samples;
        sim.setIntervalObserver([&](const IntervalStats &s) {
            serial::appendU64(samples, s.index);
            serial::appendU64(samples, s.instructions);
            serial::appendU64(samples, s.feCycles);
            serial::appendDouble(samples, s.ipc);
            serial::appendI64(samples, s.startTime);
            serial::appendI64(samples, s.endTime);
            serial::appendDouble(samples, s.chipEnergy);
            for (const DomainIntervalStats &d : s.domains) {
                serial::appendDouble(samples, d.queueUtilization);
                serial::appendDouble(samples, d.avgOccupancy);
                serial::appendU64(samples, d.issued);
                serial::appendU64(samples, d.cycles);
                serial::appendU64(samples, d.busyCycles);
                serial::appendDouble(samples, d.frequency);
            }
            serial::appendDouble(samples, s.robUtilization);
            serial::appendDouble(samples, s.avgRobOccupancy);
            serial::appendDouble(samples, s.feFrequency);
        });
        sim.runTo(MEASURED);
        EXPECT_EQ(hex(c.golden), hex(serial::fnv1a(samples)));
    }
}

TEST(SimGolden, McfFrequenciesSetBetweenRuns)
{
    // Frequencies jump with no slew between runTo calls while mcf
    // waits on memory: the quiet runs after each jump go at the new
    // periods.
    for (ClockMode mode : {ClockMode::Synchronous, ClockMode::Mcd}) {
        auto workload =
            BenchmarkFactory::create("mcf", MEASURED + WARMUP);
        SimConfig config;
        config.clocks.mode = mode;
        Simulator sim(config, *workload);
        sim.runTo(6001);
        ClockSystem &clocks = sim.clocks();
        clocks.clock(DomainId::FrontEnd).setFrequencyImmediate(800.0e6);
        clocks.clock(DomainId::Integer).setFrequencyImmediate(
            config.dvfs.freqMin);
        clocks.clock(DomainId::LoadStore).setFrequencyImmediate(
            550.0e6);
        sim.runTo(14003);
        clocks.clock(DomainId::FrontEnd).setFrequencyImmediate(
            config.dvfs.freqMax);
        clocks.clock(DomainId::FloatingPoint).setFrequencyImmediate(
            300.0e6);
        clocks.clock(DomainId::LoadStore).setFrequencyImmediate(
            config.dvfs.freqMin);
        sim.runTo(MEASURED + WARMUP);
        EXPECT_GT(sim.skippedEdges(DomainId::LoadStore), 0u);
        expectDigest(sim.stats(), mode == ClockMode::Synchronous
                                      ? 0xf6ce168f1a0d0226ull
                                      : 0xa92c182d84cd54b7ull);
    }
}

} // namespace
} // namespace mcd
