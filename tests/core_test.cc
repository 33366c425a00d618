/**
 * @file
 * Tests for the cycle-level MCD core: physical register file and rename
 * machinery, end-to-end simulation invariants, dependence timing,
 * store-to-load forwarding, mispredict penalties, back-pressure, the
 * interval sampling machinery, MCD-vs-synchronous behavior, and the
 * issue-select state checked against the machine after every commit.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "control/controller_registry.hh"
#include "core/simulator.hh"
#include "harness/artifact.hh"
#include "workload/benchmark_factory.hh"
#include "workload/workload.hh"

namespace mcd
{
namespace
{

// --------------------------------------------------------------------
// PhysRegFile / RenameMap
// --------------------------------------------------------------------

TEST(PhysRegFile, AllocUntilExhaustion)
{
    PhysRegFile file(4);
    EXPECT_EQ(file.freeCount(), 4);
    std::vector<int> regs;
    for (int i = 0; i < 4; ++i) {
        int reg = file.alloc();
        EXPECT_GE(reg, 0);
        regs.push_back(reg);
    }
    EXPECT_EQ(file.alloc(), -1);
    file.free(regs[0]);
    EXPECT_EQ(file.freeCount(), 1);
    EXPECT_GE(file.alloc(), 0);
}

TEST(PhysRegFile, FreshAllocationIsNotWritten)
{
    PhysRegFile file(4);
    int reg = file.alloc();
    EXPECT_FALSE(file.written(reg));
    file.markWritten(reg, 500, DomainId::Integer);
    EXPECT_TRUE(file.written(reg));
}

TEST(PhysRegFile, ReadyAtHonorsSyncWindow)
{
    DvfsModel dvfs;
    ClockSystem clocks(dvfs, ClockSystemConfig{});
    PhysRegFile file(4);
    int reg = file.alloc();
    file.markWritten(reg, 1000, DomainId::LoadStore);
    // Same domain: visible immediately after the write time.
    EXPECT_TRUE(file.readyAt(reg, DomainId::LoadStore, 1001, clocks));
    // Cross domain: needs the 300 ps window.
    EXPECT_FALSE(file.readyAt(reg, DomainId::Integer, 1100, clocks));
    EXPECT_TRUE(file.readyAt(reg, DomainId::Integer, 1300, clocks));
    // Negative register index (zero register) is always ready.
    EXPECT_TRUE(file.readyAt(-1, DomainId::Integer, 0, clocks));
}

TEST(RenameMap, InitialMappingsAreWrittenAndDistinct)
{
    PhysRegFile int_file(72), fp_file(72);
    RenameMap rename(int_file, fp_file);
    std::vector<bool> seen(72, false);
    for (int l = 1; l < NUM_INT_ARCH_REGS; ++l) {
        int phys = rename.lookup(l);
        ASSERT_GE(phys, 0);
        EXPECT_FALSE(seen[static_cast<std::size_t>(phys)]);
        seen[static_cast<std::size_t>(phys)] = true;
        EXPECT_TRUE(int_file.written(phys));
    }
    EXPECT_EQ(int_file.freeCount(), 72 - 31);
    EXPECT_EQ(fp_file.freeCount(), 72 - 32);
}

TEST(RenameMap, ZeroRegisterNeverMaps)
{
    PhysRegFile int_file(72), fp_file(72);
    RenameMap rename(int_file, fp_file);
    EXPECT_EQ(rename.lookup(0), -1);
    EXPECT_EQ(rename.lookup(-1), -1);
}

TEST(RenameMap, RenameReturnsOldMapping)
{
    PhysRegFile int_file(72), fp_file(72);
    RenameMap rename(int_file, fp_file);
    int old = rename.lookup(5);
    int fresh = int_file.alloc();
    EXPECT_EQ(rename.rename(5, fresh), old);
    EXPECT_EQ(rename.lookup(5), fresh);
}

TEST(PhysRegFile, FreeingABadRegisterPanics)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    PhysRegFile file(4);
    EXPECT_DEATH(file.free(4), "freeing bad physical register 4");
    EXPECT_DEATH(file.free(-1), "freeing bad physical register -1");
}

TEST(RenameMap, RenamingTheZeroRegisterPanics)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    PhysRegFile int_file(72), fp_file(72);
    RenameMap rename(int_file, fp_file);
    EXPECT_DEATH(rename.rename(0, int_file.alloc()),
                 "renaming the zero register");
}

// --------------------------------------------------------------------
// Simulation helpers
// --------------------------------------------------------------------

SimConfig
fastConfig(ClockMode mode = ClockMode::Mcd)
{
    SimConfig config;
    config.clocks.mode = mode;
    config.clocks.seed = 7;
    return config;
}

/** A trivial independent-ALU trace: near-ideal ILP. */
std::vector<MicroOp>
independentAluTrace(int length)
{
    std::vector<MicroOp> ops;
    std::uint64_t pc = 0x1000;
    for (int i = 0; i < length; ++i) {
        MicroOp op;
        op.pc = pc;
        pc += 4;
        op.cls = OpClass::IntAlu;
        op.srcA = 0;
        op.dst = 1 + (i % 20);
        if (i == length - 1) {
            op.cls = OpClass::Branch;
            op.dst = NO_REG;
            op.taken = true;
            op.target = 0x1000;
            pc = 0x1000;
        }
        ops.push_back(op);
    }
    return ops;
}

/** A fully serial dependence chain: dst of op i feeds op i+1. */
std::vector<MicroOp>
serialChainTrace(int length)
{
    std::vector<MicroOp> ops;
    std::uint64_t pc = 0x1000;
    for (int i = 0; i < length; ++i) {
        MicroOp op;
        op.pc = pc;
        pc += 4;
        op.cls = OpClass::IntAlu;
        op.srcA = 1 + ((i + 19) % 20); // = dst of the previous op
        op.dst = 1 + (i % 20);
        if (i == length - 1) {
            op.cls = OpClass::Branch;
            op.srcA = 1 + ((i + 19) % 20);
            op.dst = NO_REG;
            op.taken = true;
            op.target = 0x1000;
            pc = 0x1000;
        }
        ops.push_back(op);
    }
    return ops;
}

// --------------------------------------------------------------------
// Simulator integration
// --------------------------------------------------------------------

// Stopping is behavior-free: a run commits at least the requested
// count and may overshoot by the tail of one retire group, so that
// run(a); run(b) executes the identical step sequence as run(a + b)
// (the checkpoint fast-forward contract relies on this).
TEST(Simulator, CommitsAtLeastTheRequestedInstructions)
{
    SimConfig config = fastConfig();
    auto width = static_cast<std::uint64_t>(config.core.retireWidth);
    auto workload = BenchmarkFactory::create("gsm", 100000);
    Simulator sim(config, *workload);
    sim.run(5000);
    EXPECT_GE(sim.committed(), 5000u);
    EXPECT_LT(sim.committed(), 5000u + width);
    std::uint64_t after_first = sim.committed();
    sim.run(2500);
    EXPECT_GE(sim.committed(), after_first + 2500u);
    EXPECT_LT(sim.committed(), after_first + 2500u + width);
}

TEST(Simulator, SplitRunsComposeExactly)
{
    auto run_split = [](std::uint64_t first) {
        auto workload = BenchmarkFactory::create("gsm", 100000);
        Simulator sim(fastConfig(), *workload);
        sim.runTo(first);
        sim.runTo(12000);
        return sim.stats();
    };
    SimStats straight = run_split(0);
    SimStats split = run_split(7000);
    EXPECT_EQ(straight.instructions, split.instructions);
    EXPECT_EQ(straight.feCycles, split.feCycles);
    EXPECT_EQ(straight.time, split.time);
    EXPECT_DOUBLE_EQ(straight.chipEnergy, split.chipEnergy);
    EXPECT_EQ(straight.mispredicts, split.mispredicts);
}

TEST(Simulator, TimeAndEnergyAdvance)
{
    auto workload = BenchmarkFactory::create("gsm", 100000);
    Simulator sim(fastConfig(), *workload);
    sim.run(5000);
    SimStats stats = sim.stats();
    EXPECT_GT(stats.time, 0);
    EXPECT_GT(stats.chipEnergy, 0.0);
    EXPECT_GT(stats.cpi, 0.2);
    EXPECT_LT(stats.cpi, 50.0);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    auto run_once = [] {
        auto workload = BenchmarkFactory::create("epic", 100000);
        Simulator sim(fastConfig(), *workload);
        sim.run(20000);
        return sim.stats();
    };
    SimStats a = run_once();
    SimStats b = run_once();
    EXPECT_EQ(a.time, b.time);
    EXPECT_DOUBLE_EQ(a.chipEnergy, b.chipEnergy);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

TEST(Simulator, ClockSeedChangesTiming)
{
    auto run_with_seed = [](std::uint64_t seed) {
        auto workload = BenchmarkFactory::create("epic", 100000);
        SimConfig config = fastConfig();
        config.clocks.seed = seed;
        Simulator sim(config, *workload);
        sim.run(20000);
        return sim.stats().time;
    };
    EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(Simulator, IndependentOpsReachHighIpc)
{
    TraceWorkload trace("ilp", independentAluTrace(64));
    Simulator sim(fastConfig(ClockMode::Synchronous), trace);
    sim.run(30000);
    // 4-wide fetch bounds IPC at 4; independent ALU work should come
    // close (branches end fetch groups, so expect > 2).
    EXPECT_LT(sim.stats().cpi, 0.55);
}

TEST(Simulator, SerialChainRunsAtUnitLatency)
{
    TraceWorkload trace("serial", serialChainTrace(64));
    Simulator sim(fastConfig(ClockMode::Synchronous), trace);
    sim.run(30000);
    // Every op depends on the previous: CPI must be close to 1 (the
    // ALU latency), clearly above the independent-trace CPI.
    EXPECT_GT(sim.stats().cpi, 0.85);
    EXPECT_LT(sim.stats().cpi, 1.6);
}

TEST(Simulator, MispredictsSlowExecution)
{
    // Same structure, one trace with a taken/not-taken random branch
    // pattern (trace alternates, which the 2-level learns; use an
    // irregular period-7 pattern instead to defeat it).
    auto make_trace = [](bool noisy) {
        std::vector<MicroOp> ops;
        std::uint64_t pc = 0x1000;
        for (int i = 0; i < 70; ++i) {
            MicroOp op;
            op.pc = pc;
            op.cls = OpClass::IntAlu;
            op.srcA = 0;
            op.dst = 1 + (i % 8);
            ops.push_back(op);
            pc += 4;
        }
        // Hammock branch: skips 2 ops when taken.
        MicroOp branch;
        branch.pc = pc;
        branch.cls = OpClass::Branch;
        branch.srcA = 1;
        branch.taken = false;
        branch.target = 0;
        ops.push_back(branch);
        (void)noisy;
        // Loop back.
        MicroOp back;
        back.pc = pc + 4;
        back.cls = OpClass::Branch;
        back.srcA = 1;
        back.taken = true;
        back.target = 0x1000;
        ops.push_back(back);
        return ops;
    };

    // Predictable run.
    TraceWorkload stable("stable", make_trace(false));
    Simulator sim_stable(fastConfig(ClockMode::Synchronous), stable);
    sim_stable.run(20000);

    // Noisy run: flip the hammock branch pseudo-randomly (an LCG hash
    // per repetition). The trace is longer than the simulated window
    // so the outcome sequence never repeats and cannot be learned.
    std::vector<MicroOp> noisy_ops;
    auto base = make_trace(false);
    std::uint32_t lcg = 12345;
    for (int rep = 0; rep < 1021; ++rep) {
        lcg = lcg * 1103515245u + 12345u;
        bool flip = ((lcg >> 16) & 1) != 0;
        for (auto op : base) {
            if (op.cls == OpClass::Branch && !op.taken && flip) {
                op.taken = true;
                op.target = op.pc + 4; // jump to the loop-back branch
            }
            noisy_ops.push_back(op);
        }
    }
    // Fix PC continuity: we keep the same PCs, so the "taken" variant
    // targets the next op anyway.
    TraceWorkload noisy("noisy", noisy_ops);
    Simulator sim_noisy(fastConfig(ClockMode::Synchronous), noisy);
    sim_noisy.run(20000);

    EXPECT_GT(sim_noisy.stats().mispredicts,
              sim_stable.stats().mispredicts + 100);
    EXPECT_GT(sim_noisy.stats().time, sim_stable.stats().time);
}

TEST(Simulator, StoreToLoadForwardingBeatsCacheMiss)
{
    // Loads that hit a just-written store address complete by
    // forwarding; compare against loads from a cold, huge footprint.
    auto make_trace = [](bool forwarded) {
        std::vector<MicroOp> ops;
        std::uint64_t pc = 0x1000;
        for (int i = 0; i < 32; ++i) {
            MicroOp store;
            store.pc = pc;
            pc += 4;
            store.cls = OpClass::Store;
            store.srcA = 0;
            store.srcB = 1 + (i % 8);
            store.memAddr = 0x100000 + static_cast<std::uint64_t>(
                                            i % 4) *
                                            8;
            ops.push_back(store);

            MicroOp load;
            load.pc = pc;
            pc += 4;
            load.cls = OpClass::Load;
            load.srcA = 0;
            load.dst = 9 + (i % 8);
            // Cold variant: 32 lines in one L1 set (2-way, 512 sets x
            // 64 B lines -> 32 KB set stride) so they thrash L1
            // forever, versus the forwarded variant hitting the
            // just-written store address.
            load.memAddr = forwarded
                ? store.memAddr
                : 0x4000000 +
                      static_cast<std::uint64_t>(i) * 32 * 1024;
            ops.push_back(load);
        }
        MicroOp back;
        back.pc = pc;
        back.cls = OpClass::Branch;
        back.srcA = 0;
        back.taken = true;
        back.target = 0x1000;
        ops.push_back(back);
        return ops;
    };

    TraceWorkload fwd("fwd", make_trace(true));
    Simulator sim_fwd(fastConfig(ClockMode::Synchronous), fwd);
    sim_fwd.run(10000);

    TraceWorkload cold("cold", make_trace(false));
    Simulator sim_cold(fastConfig(ClockMode::Synchronous), cold);
    sim_cold.run(10000);

    EXPECT_LT(sim_fwd.stats().time, sim_cold.stats().time);
    EXPECT_GT(sim_cold.stats().l1dMisses,
              sim_fwd.stats().l1dMisses + 100);
}

TEST(Simulator, MemoryBoundWorkloadHasHighCpi)
{
    auto compute = BenchmarkFactory::create("gsm", 100000);
    Simulator sim_compute(fastConfig(), *compute);
    sim_compute.run(30000);

    auto membound = BenchmarkFactory::create("mcf", 100000);
    Simulator sim_membound(fastConfig(), *membound);
    sim_membound.run(30000);

    EXPECT_GT(sim_membound.stats().cpi,
              2.0 * sim_compute.stats().cpi);
    EXPECT_GT(sim_membound.stats().l2Misses,
              sim_compute.stats().l2Misses);
}

TEST(Simulator, LowerFrequencyLowersEnergyAndStretchesTime)
{
    auto run_at = [](Hertz freq) {
        auto workload = BenchmarkFactory::create("gsm", 100000);
        SimConfig config = fastConfig(ClockMode::Synchronous);
        config.clocks.startFreq = freq;
        Simulator sim(config, *workload);
        sim.run(20000);
        return sim.stats();
    };
    SimStats fast = run_at(1.0e9);
    SimStats slow = run_at(500.0e6);
    EXPECT_GT(slow.time, fast.time);
    EXPECT_LT(slow.chipEnergy, fast.chipEnergy);
}

TEST(Simulator, ResetMeasurementExcludesWarmup)
{
    auto workload = BenchmarkFactory::create("gsm", 100000);
    Simulator sim(fastConfig(), *workload);
    sim.run(10000);
    sim.resetMeasurement();
    EXPECT_EQ(sim.stats().instructions, 0u);
    EXPECT_DOUBLE_EQ(sim.stats().chipEnergy, 0.0);
    sim.run(5000);
    EXPECT_GE(sim.stats().instructions, 5000u);
    EXPECT_LT(sim.stats().instructions,
              5000u + static_cast<std::uint64_t>(
                          fastConfig().core.retireWidth));
    EXPECT_GT(sim.stats().chipEnergy, 0.0);
}

TEST(Simulator, IntervalObserverFiresEveryInterval)
{
    auto workload = BenchmarkFactory::create("gsm", 100000);
    SimConfig config = fastConfig();
    config.core.intervalInstructions = 1000;
    Simulator sim(config, *workload);
    std::vector<IntervalStats> samples;
    sim.setIntervalObserver(
        [&](const IntervalStats &stats) { samples.push_back(stats); });
    sim.run(10500);
    ASSERT_EQ(samples.size(), 10u);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(samples[i].index, i);
        EXPECT_EQ(samples[i].instructions, 1000u);
        EXPECT_GT(samples[i].feCycles, 0u);
        EXPECT_GT(samples[i].ipc, 0.0);
    }
}

TEST(Simulator, IntervalTimesAreContiguous)
{
    auto workload = BenchmarkFactory::create("epic", 100000);
    SimConfig config = fastConfig();
    config.core.intervalInstructions = 500;
    Simulator sim(config, *workload);
    Tick last_end = 0;
    sim.setIntervalObserver([&](const IntervalStats &stats) {
        EXPECT_EQ(stats.startTime, last_end);
        EXPECT_GT(stats.endTime, stats.startTime);
        last_end = stats.endTime;
    });
    sim.run(5000);
}

TEST(Simulator, QueueUtilizationReflectsWorkloadClass)
{
    // An FP-free workload must report (near-)zero FP queue utilization
    // while the integer domain is busy.
    auto workload = BenchmarkFactory::create("adpcm", 100000);
    SimConfig config = fastConfig();
    config.core.intervalInstructions = 1000;
    Simulator sim(config, *workload);
    double fp_util = 0.0, int_util = 0.0;
    int samples = 0;
    sim.setIntervalObserver([&](const IntervalStats &stats) {
        fp_util += stats.domains[CTL_FP].queueUtilization;
        int_util += stats.domains[CTL_INT].queueUtilization;
        ++samples;
    });
    sim.run(20000);
    ASSERT_GT(samples, 0);
    EXPECT_LT(fp_util / samples, 0.01);
    EXPECT_GT(int_util / samples, 0.1);
}

TEST(Simulator, SynchronousModeIsFasterThanMcd)
{
    auto run_mode = [](ClockMode mode) {
        auto workload = BenchmarkFactory::create("gsm", 100000);
        Simulator sim(fastConfig(mode), *workload);
        sim.run(30000);
        return sim.stats().time;
    };
    Tick sync_time = run_mode(ClockMode::Synchronous);
    Tick mcd_time = run_mode(ClockMode::Mcd);
    EXPECT_GT(mcd_time, sync_time);
    // The inherent MCD degradation stays well under 10%.
    EXPECT_LT(static_cast<double>(mcd_time),
              static_cast<double>(sync_time) * 1.10);
}

TEST(Simulator, LsqBackPressureDoesNotDeadlock)
{
    // A store-heavy loop exceeding LSQ capacity must still retire.
    std::vector<MicroOp> ops;
    std::uint64_t pc = 0x1000;
    for (int i = 0; i < 100; ++i) {
        MicroOp op;
        op.pc = pc;
        pc += 4;
        op.cls = OpClass::Store;
        op.srcA = 0;
        op.srcB = 1;
        op.memAddr = 0x8000000 + static_cast<std::uint64_t>(i) * 64 *
                                     1021; // all L1 misses
        ops.push_back(op);
    }
    MicroOp back;
    back.pc = pc;
    back.cls = OpClass::Branch;
    back.srcA = 0;
    back.taken = true;
    back.target = 0x1000;
    ops.push_back(back);

    TraceWorkload trace("stores", ops);
    Simulator sim(fastConfig(), trace);
    sim.run(5000);
    EXPECT_EQ(sim.committed(), 5000u);
}

TEST(Simulator, FpDivOccupiesUnit)
{
    // Back-to-back dependent FP divides run at ~divide latency each.
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

    TraceWorkload trace("divs", ops);
    Simulator sim(fastConfig(ClockMode::Synchronous), trace);
    sim.run(2000);
    // 12-cycle divide dominating 21 ops per iteration: CPI near 11-12.
    EXPECT_GT(sim.stats().cpi, 8.0);
}

TEST(Simulator, QuietEdgesAreCountedPerDomain)
{
    // Every clock edge reaches its domain exactly once, quiet or not,
    // also when quiet edges are taken in bulk runs or skipped in one
    // clock call; a memory-bound app leaves most of them with nothing
    // to do. mcf has no FP work, so the idle FP domain sleeps through
    // every edge.
    auto workload = BenchmarkFactory::create("mcf", 100000);
    Simulator sim(fastConfig(), *workload);
    sim.run(5000);
    std::uint64_t quiet = 0;
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto id = static_cast<DomainId>(d);
        EXPECT_EQ(sim.clocks().clock(id).cycles(), sim.edges(id));
        EXPECT_GT(sim.quietEdges(id), sim.edges(id) / 2);
        EXPECT_GT(sim.skippedEdges(id), 0u);
        EXPECT_LE(sim.skippedEdges(id), sim.quietEdges(id));
        if (id == DomainId::FloatingPoint)
            EXPECT_EQ(sim.quietEdges(id), sim.edges(id));
        else
            EXPECT_LT(sim.quietEdges(id), sim.edges(id));
        quiet += sim.quietEdges(id);
    }
    EXPECT_GT(sim.quietRuns(), 0u);
    EXPECT_LE(sim.quietRuns(), quiet);
}

TEST(LazyClocks, CaughtUpAfterEveryRun)
{
    // A calm, quiet domain leaves the edge race and charges its edges
    // when it catches up; every runTo catches all of them up before it
    // returns. gsm leaves the FP domain asleep all run, epic sleeps it
    // through whole phases and then wakes it, and mcf takes all four
    // domains out of the race during misses. Attack/Decay slews clocks,
    // whose energy flushes catch the lazy domains up mid-run. A run cut
    // into uneven chunks ends in the machine of one unbroken run.
    constexpr std::uint64_t CHUNKS[] = {1, 733, 2049, 2050, 5003, 9871,
                                        16000};
    constexpr std::uint64_t END = CHUNKS[std::size(CHUNKS) - 1];
    for (const char *bench : {"gsm", "epic", "mcf"}) {
        for (const char *name : {"none", "attack_decay"}) {
            SCOPED_TRACE(std::string(bench) + " under " + name);
            SimConfig config = fastConfig();
            config.core.intervalInstructions = 500;
            std::unique_ptr<FrequencyController> controller;
            if (std::string(name) != "none")
                controller = ControllerRegistry::instance().create(
                    parseControllerSpec(name));

            auto straight_workload = BenchmarkFactory::create(bench, END);
            Simulator straight(config, *straight_workload,
                               controller.get());
            straight.runTo(END);
            std::string straight_bytes;
            straight.saveCheckpoint(straight_bytes);

            if (controller)
                controller = ControllerRegistry::instance().create(
                    parseControllerSpec(name));
            auto workload = BenchmarkFactory::create(bench, END);
            Simulator sim(config, *workload, controller.get());
            for (std::uint64_t target : CHUNKS) {
                sim.runTo(target);
                for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
                    auto id = static_cast<DomainId>(d);
                    EXPECT_EQ(sim.edges(id), sim.clocks().clock(id).cycles())
                        << domainName(id) << " at " << target;
                }
                EXPECT_EQ(sim.checkScheduler(), "") << "at " << target;
            }
            std::uint64_t skipped = 0;
            for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d)
                skipped += sim.skippedEdges(static_cast<DomainId>(d));
            EXPECT_GT(skipped, 0u);
            std::string bytes;
            sim.saveCheckpoint(bytes);
            EXPECT_TRUE(bytes == straight_bytes);
            EXPECT_EQ(encodeArtifact(sim.stats()),
                      encodeArtifact(straight.stats()));
        }
    }
}

TEST(LazyClocks, LivenessPanicStillFires)
{
    // With no free integer register the first op can never dispatch:
    // the front end waits for a state change that no domain will make,
    // and the other domains sleep. Every MCD domain leaves the edge race
    // with no quiet bound, and the synchronous clock spins quietly;
    // either way the liveness check must panic rather than spin.
    for (ClockMode mode : {ClockMode::Mcd, ClockMode::Synchronous}) {
        SimConfig config = fastConfig(mode);
        config.core.intPhysRegs = NUM_INT_ARCH_REGS - 1;
        TraceWorkload trace("stuck", independentAluTrace(16));
        Simulator sim(config, trace);
        EXPECT_DEATH(sim.run(1), "no clock domain can wake");
    }
}

/** Run `sim` one commit at a time, checking the issue-select state
 *  after every step. */
void
expectSchedulerConsistent(Simulator &sim, std::uint64_t commits,
                          const std::string &what)
{
    while (sim.committed() < commits) {
        sim.run(1);
        std::string violation = sim.checkScheduler();
        ASSERT_EQ(violation, "")
            << what << " after " << sim.committed() << " commits";
    }
}

TEST(Simulator, SchedulerStateMatchesMachineEveryCommit)
{
    // Cached operand ticks, waiter lists, the per-word store table and
    // sleeping domains, on integer, FP-heavy, memory-bound and phased
    // synthetic code, in both clocking modes.
    for (ClockMode mode : {ClockMode::Mcd, ClockMode::Synchronous}) {
        for (const char *bench :
             {"gsm", "power", "mcf", "synthetic:markov=8,mem=0.5"}) {
            auto workload = BenchmarkFactory::create(bench, 100000);
            Simulator sim(fastConfig(mode), *workload);
            EXPECT_EQ(sim.checkScheduler(), "");
            ASSERT_NO_FATAL_FAILURE(
                expectSchedulerConsistent(sim, 3000, bench));
        }
    }
}

TEST(Simulator, SchedulerStateSurvivesRingGrowthAndRestore)
{
    // Bursts of stores that miss to memory, each followed by a long run
    // of independent ALU work: the committed ALU ops pile up behind the
    // draining stores until the window ring grows.
    std::vector<MicroOp> ops;
    std::uint64_t pc = 0x1000;
    for (int i = 0; i < 64; ++i) {
        MicroOp store;
        store.pc = pc;
        pc += 4;
        store.cls = OpClass::Store;
        store.srcA = 0;
        store.srcB = 1;
        // One L2 set for all 64 lines: every write misses to memory.
        store.memAddr = 0x8000000 + (static_cast<std::uint64_t>(i) << 20);
        ops.push_back(store);
        if (i % 16 != 15)
            continue;
        for (int j = 0; j < 600; ++j) {
            MicroOp alu;
            alu.pc = pc;
            pc += 4;
            alu.cls = OpClass::IntAlu;
            alu.srcA = 2 + j % 8;
            alu.dst = 10 + j % 8;
            ops.push_back(alu);
        }
    }
    MicroOp back;
    back.pc = pc;
    back.cls = OpClass::Branch;
    back.srcA = 0;
    back.taken = true;
    back.target = 0x1000;
    ops.push_back(back);

    TraceWorkload trace("grow", ops);
    Simulator sim(fastConfig(), trace);
    ASSERT_NO_FATAL_FAILURE(expectSchedulerConsistent(sim, 20000, "growth"));

    std::string snapshot;
    sim.saveCheckpoint(snapshot);
    TraceWorkload resumed_trace("grow", ops);
    Simulator resumed(fastConfig(), resumed_trace);
    serial::Reader in(snapshot);
    ASSERT_TRUE(resumed.restoreCheckpoint(in));
    EXPECT_EQ(resumed.checkScheduler(), "");
    expectSchedulerConsistent(resumed, 24000, "restored");
}

TEST(Simulator, RunsAtMinimumFrequencyDomains)
{
    // All controllable domains at the minimum: still correct, slower,
    // and cheaper per instruction than the all-max baseline.
    auto workload_slow = BenchmarkFactory::create("gsm", 100000);
    SimConfig config = fastConfig();
    Simulator slow(config, *workload_slow);
    slow.clocks().clock(DomainId::Integer).setFrequencyImmediate(250e6);
    slow.clocks().clock(DomainId::FloatingPoint)
        .setFrequencyImmediate(250e6);
    slow.clocks().clock(DomainId::LoadStore).setFrequencyImmediate(
        250e6);
    slow.run(10000);

    auto workload_fast = BenchmarkFactory::create("gsm", 100000);
    Simulator fast(config, *workload_fast);
    fast.run(10000);

    EXPECT_GT(slow.stats().time, fast.stats().time);
    EXPECT_LT(slow.stats().epi, fast.stats().epi);
}

class BenchmarkSanity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BenchmarkSanity, RunsWithPlausibleStatistics)
{
    auto workload = BenchmarkFactory::create(GetParam(), 100000);
    Simulator sim(fastConfig(), *workload);
    sim.run(20000);
    SimStats stats = sim.stats();
    EXPECT_GE(stats.instructions, 20000u);
    EXPECT_LT(stats.instructions,
              20000u + static_cast<std::uint64_t>(
                           fastConfig().core.retireWidth));
    EXPECT_GT(stats.cpi, 0.25); // cannot beat 4-wide fetch
    EXPECT_LT(stats.cpi, 60.0);
    EXPECT_GT(stats.epi, 0.5);
    EXPECT_LT(stats.epi, 500.0);
    EXPECT_GT(stats.branches, 100u);
    EXPECT_LT(static_cast<double>(stats.mispredicts),
              0.5 * static_cast<double>(stats.branches));
    EXPECT_GT(stats.loads, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, BenchmarkSanity,
    ::testing::Values("adpcm", "epic", "jpeg", "ghostscript", "bh",
                      "em3d", "health", "treeadd", "art", "bzip2",
                      "gcc", "mcf", "swim", "vortex", "power"));

} // namespace
} // namespace mcd
