/**
 * @file
 * Tests for the synthetic workload substrate: determinism, control-flow
 * consistency (the stream is a plausible correct path), instruction-mix
 * fidelity to the spec, memory-footprint bounds, pointer-chase
 * dependences, phase structure, and the 30-benchmark factory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "common/serial.hh"
#include "workload/benchmark_factory.hh"
#include "workload/scenario_registry.hh"
#include "workload/workload.hh"

namespace mcd
{
namespace
{

BenchmarkSpec
simpleSpec()
{
    BenchmarkSpec spec;
    spec.name = "unit";
    spec.suite = "test";
    spec.seed = 42;
    spec.phases.push_back(PhaseSpec{});
    return spec;
}

TEST(MicroOp, ClassPredicates)
{
    EXPECT_TRUE(isFpClass(OpClass::FpAdd));
    EXPECT_TRUE(isFpClass(OpClass::FpSqrt));
    EXPECT_FALSE(isFpClass(OpClass::FpLoad)); // memory class
    EXPECT_TRUE(isMemClass(OpClass::FpLoad));
    EXPECT_TRUE(isMemClass(OpClass::Store));
    EXPECT_TRUE(isControlClass(OpClass::Return));
    EXPECT_FALSE(isControlClass(OpClass::IntAlu));
    EXPECT_TRUE(isLoadClass(OpClass::FpLoad));
    EXPECT_FALSE(isLoadClass(OpClass::FpStore));
    EXPECT_TRUE(isStoreClass(OpClass::FpStore));
}

TEST(MicroOp, NextPcFollowsControlFlow)
{
    MicroOp op;
    op.pc = 0x100;
    op.cls = OpClass::Branch;
    op.taken = true;
    op.target = 0x500;
    EXPECT_EQ(op.nextPc(), 0x500u);
    op.taken = false;
    EXPECT_EQ(op.nextPc(), 0x104u);
    op.cls = OpClass::IntAlu;
    op.taken = true;
    EXPECT_EQ(op.nextPc(), 0x104u);
}

TEST(SyntheticProgram, DeterministicForSameSeedAndHorizon)
{
    SyntheticProgram a(simpleSpec(), 100000);
    SyntheticProgram b(simpleSpec(), 100000);
    for (int i = 0; i < 20000; ++i) {
        MicroOp x = a.next();
        MicroOp y = b.next();
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(static_cast<int>(x.cls), static_cast<int>(y.cls));
        EXPECT_EQ(x.memAddr, y.memAddr);
        EXPECT_EQ(x.taken, y.taken);
        EXPECT_EQ(x.srcA, y.srcA);
        EXPECT_EQ(x.dst, y.dst);
    }
}

TEST(SyntheticProgram, DifferentSeedsProduceDifferentStreams)
{
    BenchmarkSpec spec_a = simpleSpec();
    BenchmarkSpec spec_b = simpleSpec();
    spec_b.seed = 43;
    SyntheticProgram a(spec_a, 100000);
    SyntheticProgram b(spec_b, 100000);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next().memAddr == b.next().memAddr;
    EXPECT_LT(same, 900);
}

TEST(SyntheticProgram, PcContinuityAlongCorrectPath)
{
    SyntheticProgram program(simpleSpec(), 100000);
    MicroOp prev = program.next();
    for (int i = 0; i < 50000; ++i) {
        MicroOp op = program.next();
        EXPECT_EQ(op.pc, prev.nextPc())
            << "discontinuity after pc=0x" << std::hex << prev.pc
            << " class=" << std::dec << static_cast<int>(prev.cls);
        prev = op;
    }
}

TEST(SyntheticProgram, MixApproximatesSpec)
{
    BenchmarkSpec spec = simpleSpec();
    PhaseSpec &phase = spec.phases[0];
    phase.loadFrac = 0.25;
    phase.storeFrac = 0.10;
    phase.branchFrac = 0.15;
    phase.fpFrac = 0.20;
    SyntheticProgram program(spec, 200000);

    std::map<int, int> counts;
    const int n = 150000;
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<int>(program.next().cls)];

    auto frac = [&counts, n](std::initializer_list<OpClass> classes) {
        int total = 0;
        for (OpClass cls : classes)
            total += counts[static_cast<int>(cls)];
        return static_cast<double>(total) / n;
    };

    EXPECT_NEAR(frac({OpClass::Load, OpClass::FpLoad}), 0.25, 0.06);
    EXPECT_NEAR(frac({OpClass::Store, OpClass::FpStore}), 0.10, 0.04);
    EXPECT_NEAR(frac({OpClass::Branch, OpClass::Call, OpClass::Return}),
                0.15, 0.06);
    EXPECT_NEAR(frac({OpClass::FpAdd, OpClass::FpMult, OpClass::FpDiv,
                      OpClass::FpSqrt}),
                0.20, 0.06);
}

TEST(SyntheticProgram, ZeroFpSpecEmitsNoFpArithmetic)
{
    BenchmarkSpec spec = simpleSpec();
    spec.phases[0].fpFrac = 0.0;
    SyntheticProgram program(spec, 100000);
    for (int i = 0; i < 50000; ++i) {
        MicroOp op = program.next();
        EXPECT_FALSE(isFpClass(op.cls));
        EXPECT_NE(static_cast<int>(op.cls),
                  static_cast<int>(OpClass::FpLoad));
    }
}

TEST(SyntheticProgram, MemoryAddressesStayInFootprint)
{
    BenchmarkSpec spec = simpleSpec();
    spec.phases[0].dataFootprint = 64 * 1024;
    SyntheticProgram program(spec, 100000);
    std::uint64_t lo = ~0ull, hi = 0;
    for (int i = 0; i < 60000; ++i) {
        MicroOp op = program.next();
        if (isMemClass(op.cls)) {
            lo = std::min(lo, op.memAddr);
            hi = std::max(hi, op.memAddr);
        }
    }
    EXPECT_LE(hi - lo, 2u * 64 * 1024); // footprint + alignment slack
}

TEST(SyntheticProgram, LargerFootprintTouchesMoreLines)
{
    auto count_lines = [](std::uint64_t footprint) {
        BenchmarkSpec spec;
        spec.name = "unit";
        spec.seed = 42;
        PhaseSpec phase;
        phase.dataFootprint = footprint;
        spec.phases.push_back(phase);
        SyntheticProgram program(spec, 200000);
        std::set<std::uint64_t> lines;
        for (int i = 0; i < 100000; ++i) {
            MicroOp op = program.next();
            if (isMemClass(op.cls))
                lines.insert(op.memAddr / 64);
        }
        return lines.size();
    };
    EXPECT_GT(count_lines(4 * 1024 * 1024), 3 * count_lines(16 * 1024));
}

TEST(SyntheticProgram, ChaseLoadsFormSerialDependences)
{
    BenchmarkSpec spec = simpleSpec();
    spec.phases[0].chaseFrac = 1.0; // all streams chase
    spec.phases[0].loadFrac = 0.4;
    SyntheticProgram program(spec, 100000);

    int serial = 0, chase_loads = 0;
    int prev_chase_dst = -1;
    for (int i = 0; i < 50000; ++i) {
        MicroOp op = program.next();
        if (op.cls == OpClass::Load) {
            ++chase_loads;
            if (prev_chase_dst >= 0 && op.srcA == prev_chase_dst)
                ++serial;
            prev_chase_dst = op.dst;
        }
    }
    ASSERT_GT(chase_loads, 1000);
    // The overwhelming majority of chase loads depend on the previous
    // chase load's destination.
    EXPECT_GT(static_cast<double>(serial) / chase_loads, 0.9);
}

TEST(SyntheticProgram, PhasesChangeBehavior)
{
    BenchmarkSpec spec = simpleSpec();
    spec.phases[0].fpFrac = 0.0;
    PhaseSpec fp_phase;
    fp_phase.fpFrac = 0.4;
    spec.phases.push_back(fp_phase);
    const std::uint64_t horizon = 100000;
    SyntheticProgram program(spec, horizon);

    int fp_in_first_half = 0, fp_in_second_half = 0;
    for (std::uint64_t i = 0; i < horizon; ++i) {
        MicroOp op = program.next();
        bool is_fp = isFpClass(op.cls) || op.cls == OpClass::FpLoad;
        if (i < horizon / 2 - 1000)
            fp_in_first_half += is_fp;
        else if (i > horizon / 2 + 1000)
            fp_in_second_half += is_fp;
    }
    EXPECT_EQ(fp_in_first_half, 0);
    EXPECT_GT(fp_in_second_half, 5000);
}

TEST(SyntheticProgram, StreamWrapsPastHorizon)
{
    SyntheticProgram program(simpleSpec(), 10000);
    for (int i = 0; i < 50000; ++i)
        program.next(); // must not crash or run out
    SUCCEED();
}

TEST(SyntheticProgram, RestoreRejectsAStreamPositionPastItsSize)
{
    // Every stream keeps its position below its size, which lets a
    // strided stream wrap by one subtraction; a restored one must too.
    SyntheticProgram program(simpleSpec(), 100000);
    for (int i = 0; i < 1000; ++i)
        program.next();
    std::string blob;
    program.saveState(blob);
    // Phase 0's first stream starts at the data base; its size and
    // position are the next two words.
    const std::uint64_t base = 0x400000000000ull;
    std::size_t at =
        blob.find(std::string(reinterpret_cast<const char *>(&base), 8));
    ASSERT_NE(at, std::string::npos);
    std::uint64_t size = 0;
    std::memcpy(&size, blob.data() + at + 8, sizeof size);
    auto restores = [&](std::uint64_t pos) {
        std::string bytes = blob;
        std::memcpy(bytes.data() + at + 16, &pos, sizeof pos);
        SyntheticProgram copy(simpleSpec(), 100000);
        serial::Reader in(bytes);
        return copy.loadState(in);
    };
    EXPECT_TRUE(restores(size - 8));
    EXPECT_FALSE(restores(size));
}

TEST(SyntheticProgram, CallsAndReturnsNest)
{
    BenchmarkSpec spec = simpleSpec();
    spec.phases[0].callFrac = 0.05;
    SyntheticProgram program(spec, 100000);
    int calls = 0, returns = 0;
    std::vector<std::uint64_t> stack;
    for (int i = 0; i < 50000; ++i) {
        MicroOp op = program.next();
        if (op.cls == OpClass::Call) {
            ++calls;
            stack.push_back(op.fallthrough());
        } else if (op.cls == OpClass::Return) {
            ++returns;
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(op.target, stack.back());
            stack.pop_back();
        }
    }
    EXPECT_GT(calls, 100);
    EXPECT_LE(stack.size(), 1u); // at most one call in flight at the end
}

TEST(SyntheticProgram, ZeroRegisterNeverWritten)
{
    SyntheticProgram program(simpleSpec(), 100000);
    for (int i = 0; i < 50000; ++i)
        EXPECT_NE(program.next().dst, 0);
}

TEST(TraceWorkload, WrapsAround)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.pc = 0x10;
    TraceWorkload trace("t", {op, op, op});
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(trace.next().pc, 0x10u);
    EXPECT_EQ(trace.name(), "t");
}

TEST(Factory, ThirtyBenchmarks)
{
    EXPECT_EQ(BenchmarkFactory::allNames().size(), 30u);
}

TEST(Factory, SuitesPartitionTheBenchmarks)
{
    auto media = BenchmarkFactory::suiteNames("MediaBench");
    auto olden = BenchmarkFactory::suiteNames("Olden");
    auto spec = BenchmarkFactory::suiteNames("Spec2000");
    EXPECT_EQ(media.size(), 9u);
    EXPECT_EQ(olden.size(), 10u);
    EXPECT_EQ(spec.size(), 11u);
}

TEST(Factory, EveryBenchmarkInstantiates)
{
    for (const auto &name : BenchmarkFactory::allNames()) {
        auto workload = BenchmarkFactory::create(name, 50000);
        ASSERT_NE(workload, nullptr);
        for (int i = 0; i < 2000; ++i)
            workload->next();
        EXPECT_EQ(workload->name(), name);
    }
}

TEST(Factory, SpecsHaveSanePhaseWeights)
{
    for (const auto &name : BenchmarkFactory::allNames()) {
        BenchmarkSpec spec = BenchmarkFactory::spec(name);
        EXPECT_FALSE(spec.phases.empty());
        for (const auto &phase : spec.phases) {
            EXPECT_GT(phase.weight, 0.0);
            EXPECT_LE(phase.loadFrac + phase.storeFrac +
                          phase.branchFrac + phase.fpFrac,
                      1.0);
            EXPECT_GT(phase.dataFootprint, 0u);
        }
    }
}

TEST(Factory, EpicHasFpPhaseStructure)
{
    // epic decode is the Figure 2/3 application: FP must be absent in
    // at least one phase and strongly present in at least one other.
    BenchmarkSpec spec = BenchmarkFactory::spec("epic");
    bool has_idle_fp = false, has_busy_fp = false;
    for (const auto &phase : spec.phases) {
        has_idle_fp = has_idle_fp || phase.fpFrac == 0.0;
        has_busy_fp = has_busy_fp || phase.fpFrac > 0.25;
    }
    EXPECT_TRUE(has_idle_fp);
    EXPECT_TRUE(has_busy_fp);
}

TEST(Factory, McfIsMemoryBoundPointerChaser)
{
    BenchmarkSpec spec = BenchmarkFactory::spec("mcf");
    EXPECT_GT(spec.phases[0].chaseFrac, 0.5);
    EXPECT_GT(spec.phases[0].dataFootprint, 8u * 1024 * 1024);
}

class FactoryStreamProperty
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FactoryStreamProperty, CorrectPathContinuity)
{
    auto workload = BenchmarkFactory::create(GetParam(), 100000);
    MicroOp prev = workload->next();
    for (int i = 0; i < 30000; ++i) {
        MicroOp op = workload->next();
        ASSERT_EQ(op.pc, prev.nextPc());
        prev = op;
    }
}

TEST_P(FactoryStreamProperty, RegistersInRange)
{
    auto workload = BenchmarkFactory::create(GetParam(), 100000);
    for (int i = 0; i < 30000; ++i) {
        MicroOp op = workload->next();
        EXPECT_GE(op.srcA, -1);
        EXPECT_LT(op.srcA, NUM_ARCH_REGS);
        EXPECT_GE(op.srcB, -1);
        EXPECT_LT(op.srcB, NUM_ARCH_REGS);
        EXPECT_GE(op.dst, -1);
        EXPECT_LT(op.dst, NUM_ARCH_REGS);
        if (op.dst >= 0 && isLoadClass(op.cls)) {
            bool fp_dst = op.dst >= NUM_INT_ARCH_REGS;
            EXPECT_EQ(fp_dst, op.cls == OpClass::FpLoad);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, FactoryStreamProperty,
    ::testing::Values("adpcm", "epic", "gcc", "mcf", "swim", "bh",
                      "treeadd", "vortex", "art", "ghostscript"));

TEST(ScenarioRegistry, ContainsThePaperBenchmarksInOrder)
{
    ScenarioRegistry &registry = ScenarioRegistry::instance();
    auto names = registry.scenarioNames();
    ASSERT_GE(names.size(), 30u);
    // The built-in 30 lead, in Figure 4 order.
    const auto &paper = BenchmarkFactory::allNames();
    for (std::size_t i = 0; i < paper.size(); ++i)
        EXPECT_EQ(names[i], paper[i]);
    for (const auto &name : paper)
        EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_FALSE(registry.contains("no_such_benchmark"));
}

TEST(ScenarioRegistry, SyntheticFamilyIsRegistered)
{
    ScenarioRegistry &registry = ScenarioRegistry::instance();
    bool found = false;
    for (const auto &family : registry.families())
        found = found || family.prefix == "synthetic:";
    EXPECT_TRUE(found);
    EXPECT_TRUE(registry.contains("synthetic:mem=0.5"));
    EXPECT_TRUE(registry.contains("synthetic:")); // all defaults
}

TEST(ScenarioRegistry, SyntheticKnobsShapeTheSpec)
{
    ScenarioRegistry &registry = ScenarioRegistry::instance();

    BenchmarkSpec lean = registry.spec("synthetic:mem=0,ilp=2");
    BenchmarkSpec heavy = registry.spec("synthetic:mem=1,ilp=32");
    ASSERT_EQ(lean.phases.size(), 1u);
    ASSERT_EQ(heavy.phases.size(), 1u);
    EXPECT_EQ(lean.phases[0].depWindow, 2);
    EXPECT_EQ(heavy.phases[0].depWindow, 32);
    EXPECT_LT(lean.phases[0].dataFootprint,
              heavy.phases[0].dataFootprint);
    EXPECT_LT(lean.phases[0].loadFrac, heavy.phases[0].loadFrac);
    EXPECT_LT(lean.phases[0].chaseFrac, heavy.phases[0].chaseFrac);
    EXPECT_EQ(lean.suite, "synthetic");

    BenchmarkSpec phased = registry.spec("synthetic:phases=6");
    ASSERT_EQ(phased.phases.size(), 6u);
    // Alternating memory-boundedness: adjacent phases differ.
    EXPECT_NE(phased.phases[0].dataFootprint,
              phased.phases[1].dataFootprint);
    EXPECT_EQ(phased.phases[0].dataFootprint,
              phased.phases[2].dataFootprint);
}

TEST(ScenarioRegistry, SyntheticBurstKnobBuildsIdlePhases)
{
    ScenarioRegistry &registry = ScenarioRegistry::instance();

    // burst=B interleaves an io-like idle phase into each of the N
    // periods: 2N phases, busy weight (1-B)/N, idle weight B/N, and
    // the idle phase is a serial pointer chase with no ILP.
    BenchmarkSpec bursty =
        registry.spec("synthetic:mem=0.2,burst=0.75,phases=3");
    ASSERT_EQ(bursty.phases.size(), 6u);
    for (std::size_t i = 0; i < bursty.phases.size(); i += 2) {
        const PhaseSpec &busy = bursty.phases[i];
        const PhaseSpec &idle = bursty.phases[i + 1];
        EXPECT_DOUBLE_EQ(busy.weight, 0.25 / 3.0);
        EXPECT_DOUBLE_EQ(idle.weight, 0.75 / 3.0);
        EXPECT_EQ(idle.depWindow, 1);
        EXPECT_DOUBLE_EQ(idle.chaseFrac, 1.0);
        EXPECT_GT(idle.dataFootprint, busy.dataFootprint);
    }

    // burst defaults to 0 and changes nothing: the un-bursty name
    // still builds the single uniform phase.
    BenchmarkSpec plain = registry.spec("synthetic:mem=0.2");
    ASSERT_EQ(plain.phases.size(), 1u);
    BenchmarkSpec zero = registry.spec("synthetic:mem=0.2,burst=0");
    ASSERT_EQ(zero.phases.size(), 1u);
    EXPECT_DOUBLE_EQ(zero.phases[0].chaseFrac, plain.phases[0].chaseFrac);

    // All idle (burst=1) is legal: busy phases carry zero weight and
    // the generator still produces a stream.
    BenchmarkSpec all_idle = registry.spec("synthetic:burst=1");
    ASSERT_EQ(all_idle.phases.size(), 2u);
    SyntheticProgram program(all_idle, 4000);
    for (int i = 0; i < 1000; ++i)
        program.next();
}

TEST(ScenarioRegistry, SyntheticSeedKnobAndNameDefault)
{
    ScenarioRegistry &registry = ScenarioRegistry::instance();
    EXPECT_EQ(registry.spec("synthetic:seed=77").seed, 77u);
    // Distinct names default to distinct seeds, deterministically.
    auto a = registry.spec("synthetic:mem=0.2");
    auto a2 = registry.spec("synthetic:mem=0.2");
    auto b = registry.spec("synthetic:mem=0.4");
    EXPECT_EQ(a.seed, a2.seed);
    EXPECT_NE(a.seed, b.seed);
}

TEST(ScenarioRegistry, SyntheticProgramsAreDeterministic)
{
    BenchmarkSpec spec = ScenarioRegistry::instance().spec(
        "synthetic:mem=0.7,ilp=4,phases=4");
    SyntheticProgram a(spec, 20000);
    SyntheticProgram b(spec, 20000);
    for (int i = 0; i < 5000; ++i) {
        MicroOp oa = a.next();
        MicroOp ob = b.next();
        EXPECT_EQ(oa.cls, ob.cls);
        EXPECT_EQ(oa.pc, ob.pc);
        EXPECT_EQ(oa.memAddr, ob.memAddr);
    }
}

TEST(ScenarioRegistry, FactoryCreatesSyntheticScenarios)
{
    auto workload =
        BenchmarkFactory::create("synthetic:mem=0.8,ilp=4", 10000);
    ASSERT_NE(workload, nullptr);
    EXPECT_EQ(workload->name(), "synthetic:mem=0.8,ilp=4");
    for (int i = 0; i < 1000; ++i)
        workload->next();
}

TEST(ScenarioRegistry, UserScenariosRegisterOnce)
{
    BenchmarkSpec custom = simpleSpec();
    custom.name = "workload_test_custom";
    custom.suite = "test";
    ScenarioRegistry::instance().add(custom);
    EXPECT_TRUE(
        ScenarioRegistry::instance().contains("workload_test_custom"));
    EXPECT_EQ(BenchmarkFactory::spec("workload_test_custom").suite,
              "test");
    auto suite = BenchmarkFactory::suiteNames("test");
    EXPECT_NE(std::find(suite.begin(), suite.end(),
                        "workload_test_custom"),
              suite.end());
}

TEST(ScenarioRegistry, UnknownKnobListsEveryValidKnob)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    // The error message is the knob documentation of last resort: it
    // must name the full valid set, including the adversarial knobs.
    EXPECT_DEATH(
        ScenarioRegistry::instance().spec("synthetic:bogus=1"),
        "unknown knob 'bogus'.*valid knobs: mem, ilp, phases, burst, "
        "markov, square, drift, fp, branch, seed");
}

TEST(ScenarioRegistry, AdversarialKnobsAreMutuallyExclusive)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    ScenarioRegistry &registry = ScenarioRegistry::instance();
    EXPECT_DEATH(registry.spec("synthetic:markov=8,square=1000"),
                 "mutually exclusive");
    EXPECT_DEATH(registry.spec("synthetic:drift=0.5,burst=0.5"),
                 "mutually exclusive");
    EXPECT_DEATH(registry.spec("synthetic:square=1000,phases=4"),
                 "mutually exclusive");
    EXPECT_DEATH(registry.spec("synthetic:square=100"),
                 "below the 500-instruction minimum");
    EXPECT_DEATH(registry.spec("synthetic:markov=1"),
                 "at least 2 segments");
    // Fractional values would truncate (markov=0.5 to 0, silently
    // disabling the stressor); they must fail loudly instead.
    EXPECT_DEATH(registry.spec("synthetic:markov=0.5"),
                 "must be a whole number");
    EXPECT_DEATH(registry.spec("synthetic:square=0.7"),
                 "below the 500-instruction minimum");
    EXPECT_DEATH(registry.spec("synthetic:square=1000.5"),
                 "must be a whole number");
}

TEST(ScenarioRegistry, MarkovKnobBuildsASeededRegimeChain)
{
    ScenarioRegistry &registry = ScenarioRegistry::instance();
    BenchmarkSpec chain = registry.spec("synthetic:markov=24,mem=0.5");
    ASSERT_EQ(chain.phases.size(), 24u);
    EXPECT_EQ(chain.periodInstructions, 0u); // weight-scaled

    // The chain visits more than one regime, and equal names rebuild
    // the identical chain (the regime RNG is seeded from the spec).
    std::set<std::uint64_t> footprints;
    for (const PhaseSpec &phase : chain.phases)
        footprints.insert(phase.dataFootprint);
    EXPECT_GE(footprints.size(), 2u);
    BenchmarkSpec again = registry.spec("synthetic:markov=24,mem=0.5");
    for (std::size_t i = 0; i < chain.phases.size(); ++i)
        EXPECT_EQ(chain.phases[i].dataFootprint,
                  again.phases[i].dataFootprint);

    // A different seed shuffles the chain.
    BenchmarkSpec other =
        registry.spec("synthetic:markov=24,mem=0.5,seed=9");
    bool differs = false;
    for (std::size_t i = 0; i < chain.phases.size(); ++i)
        differs = differs || chain.phases[i].dataFootprint !=
                                 other.phases[i].dataFootprint;
    EXPECT_TRUE(differs);
}

TEST(ScenarioRegistry, SquareKnobPinsAnAbsoluteFlipPeriod)
{
    ScenarioRegistry &registry = ScenarioRegistry::instance();
    BenchmarkSpec square =
        registry.spec("synthetic:square=1000,mem=0.5");
    ASSERT_EQ(square.phases.size(), 2u);
    EXPECT_EQ(square.periodInstructions, 2000u);
    // The two regimes sit on opposite sides of the mem knob.
    EXPECT_LT(square.phases[0].dataFootprint,
              square.phases[1].dataFootprint);
    EXPECT_GT(square.phases[0].depWindow, square.phases[1].depWindow);

    // The absolute period holds at any horizon: over 100k
    // instructions a 1000-instruction half-period flips ~100 times,
    // where a weight-scaled 2-phase program would flip once.
    SyntheticProgram program(square, 100000);
    int flips = 0;
    int last = program.currentPhase();
    for (int i = 0; i < 100000; ++i) {
        program.next();
        if (program.currentPhase() != last) {
            ++flips;
            last = program.currentPhase();
        }
    }
    EXPECT_GT(flips, 40);
}

TEST(ScenarioRegistry, DriftKnobRampsMonotonically)
{
    ScenarioRegistry &registry = ScenarioRegistry::instance();
    BenchmarkSpec drift =
        registry.spec("synthetic:drift=0.8,mem=0.5");
    ASSERT_EQ(drift.phases.size(), 48u);
    for (std::size_t i = 1; i < drift.phases.size(); ++i) {
        EXPECT_GE(drift.phases[i].loadFrac,
                  drift.phases[i - 1].loadFrac);
        EXPECT_GE(drift.phases[i].dataFootprint,
                  drift.phases[i - 1].dataFootprint);
    }
    // The ramp spans `drift` around `mem`: ends differ substantially.
    EXPECT_GT(drift.phases.back().chaseFrac -
                  drift.phases.front().chaseFrac,
              0.3);
    // Adjacent steps stay small — the whole point of the stressor.
    for (std::size_t i = 1; i < drift.phases.size(); ++i)
        EXPECT_LT(drift.phases[i].chaseFrac -
                      drift.phases[i - 1].chaseFrac,
                  0.02);
}

} // namespace
} // namespace mcd
