/**
 * @file
 * Microbenchmarks of the simulator's building blocks: raw simulation
 * throughput per machine mode, the serial 30-app suite at a short
 * window, the off-line Dynamic-X% search, clock-edge generation one
 * edge at a time and skipped in bulk, cache access, branch
 * prediction, and workload generation. These guard against
 * performance regressions in the hot paths every experiment binary
 * depends on.
 *
 * Self-contained (std::chrono) so it builds everywhere the library
 * does — no google-benchmark dependency. Each benchmark is run in
 * growing batches until the measured time passes `--min-time-ms`
 * (default 200 ms per benchmark), then reported as ns/op and items/s.
 *
 *   sim_microbench [--json] [--min-time-ms <ms>] [--filter <substr>]
 *
 * `--json` emits one machine-readable object per run — CI uploads it
 * as `BENCH_sim.json`, the repo's performance trajectory.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "clock/domain_clock.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "control/attack_decay.hh"
#include "core/simulator.hh"
#include "harness/experiment.hh"
#include "memory/cache.hh"
#include "predictor/branch_predictor.hh"
#include "telemetry/profiler.hh"
#include "workload/benchmark_factory.hh"

namespace
{

using namespace mcd;

/** Result of one benchmark: total time over `items` processed. */
struct BenchResult
{
    std::string name;
    std::uint64_t iterations = 0; //!< timed batch iterations
    std::uint64_t items = 0;      //!< items processed across batches
    std::uint64_t feCycles = 0;   //!< front-end cycles, if reported
    std::uint64_t simulations = 0; //!< simulations per batch, if counted
    double seconds = 0.0;         //!< measured wall-clock
};

double
nsPerItem(const BenchResult &r)
{
    return r.items > 0 ? r.seconds * 1e9 / static_cast<double>(r.items)
                       : 0.0;
}

double
itemsPerSecond(const BenchResult &r)
{
    return r.seconds > 0.0
        ? static_cast<double>(r.items) / r.seconds : 0.0;
}

double
feCyclesPerSecond(const BenchResult &r)
{
    return r.seconds > 0.0
        ? static_cast<double>(r.feCycles) / r.seconds : 0.0;
}

/**
 * One registered benchmark: `items` is how many items one call of
 * `batch` processes, and `feCyclesPerBatch` how many simulated
 * front-end cycles, where that is reported (simulator cost scales with
 * cycles), and `simulationsPerBatch` how many simulations, where
 * that is counted. State setup happens in the factory closure, so
 * repeated batches reuse warm structures (google-benchmark's loop
 * semantics).
 */
struct Bench
{
    std::string name;
    std::uint64_t itemsPerBatch = 0;
    std::function<void()> batch;
    std::uint64_t feCyclesPerBatch = 0;
    std::uint64_t simulationsPerBatch = 0;
};

BenchResult
run(const Bench &bench, double min_seconds)
{
    using clock = std::chrono::steady_clock;

    // Warm-up batches (untimed): first-touch allocation, cold caches,
    // branch-predictor and frequency-governor settling. Three batches
    // keep the first timed batch indistinguishable from the rest.
    for (int i = 0; i < 3; ++i)
        bench.batch();

    BenchResult result;
    result.name = bench.name;
    result.simulations = bench.simulationsPerBatch;
    auto start = clock::now();
    for (;;) {
        bench.batch();
        ++result.iterations;
        result.items += bench.itemsPerBatch;
        result.feCycles += bench.feCyclesPerBatch;
        result.seconds =
            std::chrono::duration<double>(clock::now() - start)
                .count();
        if (result.seconds >= min_seconds)
            break;
    }
    return result;
}

std::vector<Bench>
allBenches()
{
    std::vector<Bench> benches;

    auto simBench = [](const std::string &name, ClockMode mode,
                       bool attack_decay,
                       const std::string &app = "gsm") {
        // Shared state across batches: one long-lived simulator that
        // keeps committing instructions from a wrapping workload.
        struct State
        {
            std::unique_ptr<WorkloadGenerator> workload;
            std::unique_ptr<AttackDecayController> controller;
            std::unique_ptr<Simulator> sim;
        };
        auto state = std::make_shared<State>();
        state->workload = BenchmarkFactory::create(app, 1u << 22);
        SimConfig config;
        config.clocks.mode = mode;
        if (attack_decay) {
            config.core.intervalInstructions = 1000;
            state->controller =
                std::make_unique<AttackDecayController>();
        }
        state->sim = std::make_unique<Simulator>(
            config, *state->workload, state->controller.get());
        return Bench{name, 1000,
                     [state] { state->sim->run(1000); }};
    };
    benches.push_back(
        simBench("SimulatorMcd", ClockMode::Mcd, false));
    benches.push_back(
        simBench("SimulatorMcdAttackDecay", ClockMode::Mcd, true));
    benches.push_back(simBench("SimulatorSynchronous",
                               ClockMode::Synchronous, false));
    // Memory-bound (mcf, CPI ~15): most domain edges are stalled, so
    // this row tracks the cost of quiet edges rather than of issue.
    benches.push_back(simBench("SimulatorMcdMemBound", ClockMode::Mcd,
                               false, "mcf"));

    // The paper suite end to end: every one of the 30 apps from a cold
    // machine, serially, at a short window. Items are committed
    // instructions, warm-up included. A suite run is deterministic, so
    // one untimed run at setup counts the items and front-end cycles
    // of every batch.
    {
        constexpr std::uint64_t WINDOW = 10000 + 2500; // measured + warm-up
        auto suite = [] {
            std::uint64_t insns = 0;
            std::uint64_t fe_cycles = 0;
            for (const std::string &app : BenchmarkFactory::allNames()) {
                auto workload = BenchmarkFactory::create(app, WINDOW);
                Simulator sim(SimConfig{}, *workload);
                sim.runTo(WINDOW);
                insns += sim.committed();
                fe_cycles +=
                    sim.clocks().clock(DomainId::FrontEnd).cycles();
            }
            return std::pair{insns, fe_cycles};
        };
        auto [insns, fe_cycles] = suite();
        benches.push_back(
            Bench{"SimulatorSuite", insns, [suite] { suite(); },
                  fe_cycles});
    }

    // The off-line Dynamic-X% search as Table 6 runs it: the profiled
    // baseline plus Dynamic-1% and Dynamic-5% of mcf and gsm, each
    // batch on a fresh cache so every probe simulates. Items are
    // simulations. The count is deterministic, so it is gated as work
    // done (any host) rather than as time.
    {
        auto search = [] {
            RunnerConfig config;
            config.instructions = 5000;
            config.warmup = 1000;
            config.jobs = 1;
            ArtifactCache cache;
            Runner runner(config, cache);
            for (const char *app : {"mcf", "gsm"}) {
                std::vector<IntervalProfile> profile;
                SimStats base = runner.runMcdBaseline(app, &profile);
                for (double target : {0.01, 0.05})
                    runner.runOfflineDynamic(app, target, base, profile);
            }
            return cache.simulationsRun();
        };
        std::uint64_t simulations = search();
        benches.push_back(Bench{"OfflineSearch", simulations,
                                [search] { search(); }, 0,
                                simulations});
    }

    // Checkpoint fast-forward vs cold start. Both cases produce the
    // machine state at `WARMUP` committed instructions and then run
    // the same `MEASURE`-instruction window; items are the measured
    // window, so items/s compares end-to-end cost per measured run and
    // the resume/cold ratio is the fast-forward speedup a warm
    // checkpoint store delivers (the CI gate asserts it stays >= 5x).
    {
        constexpr std::uint64_t WARMUP = 100000;
        constexpr std::uint64_t MEASURE = 10000;
        constexpr std::uint64_t HORIZON = 1u << 22;

        auto makeSim = [](std::unique_ptr<WorkloadGenerator> &workload,
                          std::unique_ptr<Simulator> &sim) {
            workload = BenchmarkFactory::create("gsm", HORIZON);
            SimConfig config;
            sim = std::make_unique<Simulator>(config, *workload);
        };

        benches.push_back(Bench{"CheckpointColdRun", MEASURE, [=] {
            std::unique_ptr<WorkloadGenerator> workload;
            std::unique_ptr<Simulator> sim;
            makeSim(workload, sim);
            sim->run(WARMUP);
            sim->resetMeasurement();
            sim->run(MEASURE);
        }});

        // Snapshot once at setup; each batch restores and runs only
        // the measured window.
        struct Resume
        {
            std::string snapshot;
        };
        auto resume = std::make_shared<Resume>();
        {
            std::unique_ptr<WorkloadGenerator> workload;
            std::unique_ptr<Simulator> sim;
            makeSim(workload, sim);
            sim->run(WARMUP);
            sim->saveCheckpoint(resume->snapshot);
        }
        benches.push_back(Bench{"CheckpointResume", MEASURE, [=] {
            std::unique_ptr<WorkloadGenerator> workload;
            std::unique_ptr<Simulator> sim;
            makeSim(workload, sim);
            serial::Reader in(resume->snapshot);
            if (!sim->restoreCheckpoint(in))
                mcd_fatal("checkpoint restore failed in benchmark");
            sim->resetMeasurement();
            sim->run(MEASURE);
        }});
    }

    {
        struct State
        {
            DvfsModel dvfs;
            DomainClock clock{DomainId::Integer, dvfs, 1.0e9, 42};
            Tick sink = 0;
        };
        auto state = std::make_shared<State>();
        benches.push_back(Bench{"ClockEdges", 1000, [state] {
            for (int i = 0; i < 1000; ++i)
                state->sink += state->clock.advance();
        }});
    }

    // The same clock's edges consumed 64 at a time, as step() skips a
    // calm run of quiet edges; items are edges, so the ratio to
    // ClockEdges is what one skipped edge saves.
    {
        struct State
        {
            DvfsModel dvfs;
            DomainClock clock{DomainId::Integer, dvfs, 1.0e9, 42};
            Tick sink = 0;
        };
        auto state = std::make_shared<State>();
        benches.push_back(Bench{"ClockSkip", 64 * 16, [state] {
            for (int i = 0; i < 16; ++i) {
                state->clock.skip(64);
                state->sink += state->clock.nextEdge();
            }
        }});
    }

    {
        struct State
        {
            Cache cache{CacheConfig{"l1", 64 * 1024, 2, 64}};
            std::uint64_t addr = 0;
            std::uint64_t sink = 0;
        };
        auto state = std::make_shared<State>();
        benches.push_back(Bench{"CacheAccess", 1000, [state] {
            for (int i = 0; i < 1000; ++i) {
                state->sink +=
                    state->cache.access(state->addr, false).hit ? 1
                                                                : 0;
                state->addr += 4096 + 64; // mixes hits and misses
            }
        }});
    }

    {
        struct State
        {
            BranchPredictor bpred;
            std::uint64_t pc = 0x1000;
            bool taken = false;
            std::uint64_t sink = 0;
        };
        auto state = std::make_shared<State>();
        benches.push_back(Bench{"BranchPredict", 1000, [state] {
            for (int i = 0; i < 1000; ++i) {
                state->sink += state->bpred
                                   .predict(state->pc, false, false,
                                            state->pc + 4)
                                   .predictTaken
                    ? 1 : 0;
                state->bpred.update(state->pc, state->taken,
                                    state->pc + 64, false, false);
                state->pc = (state->pc + 16) & 0xffff;
                state->taken = !state->taken;
            }
        }});
    }

    {
        struct State
        {
            std::unique_ptr<WorkloadGenerator> workload =
                BenchmarkFactory::create("gcc", 1u << 22);
            std::uint64_t sink = 0;
        };
        auto state = std::make_shared<State>();
        benches.push_back(Bench{"WorkloadGeneration", 1000, [state] {
            for (int i = 0; i < 1000; ++i)
                state->sink += state->workload->next().pc;
        }});
    }

    return benches;
}

// -------------------------------------------------- telemetry cost

/** Telemetry overhead measurement: what the always-compiled-in phase
 *  probes cost with the profiler off (the shipped configuration) and
 *  on. The off-path overhead is derived, not asserted: probe cost x
 *  probe density / simulation cost, reported so CI's BENCH_sim.json
 *  records the trajectory. */
struct ProfileOverhead
{
    double nsPerDisabledProbe = 0.0;
    double nsPerEnabledProbe = 0.0;
    double probesPerInstruction = 0.0;
    double nsPerInstructionOff = 0.0;
    double itemsPerSecondOff = 0.0;
    double itemsPerSecondOn = 0.0;
    double overheadOffPercent = 0.0; //!< derived probe-cost estimate
    double overheadOnPercent = 0.0;  //!< measured items/s delta
};

/** Cost of one ScopedTimer construct/destruct pair at the current
 *  profiler setting. The escape asm keeps the otherwise side-effect-
 *  free disabled timer from being optimized away. */
double
probeCostNs()
{
    using clock = std::chrono::steady_clock;
    constexpr int N = 1 << 20;
    double best = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
        auto start = clock::now();
        for (int i = 0; i < N; ++i) {
            telemetry::ScopedTimer timer(telemetry::Phase::PoolTask);
            asm volatile("" : : "r"(&timer) : "memory");
        }
        double s =
            std::chrono::duration<double>(clock::now() - start)
                .count();
        best = std::min(best, s * 1e9 / N);
    }
    return best;
}

ProfileOverhead
measureProfileOverhead(double min_seconds)
{
    ProfileOverhead p;

    telemetry::setProfiling(false);
    p.nsPerDisabledProbe = probeCostNs();
    telemetry::setProfiling(true);
    telemetry::resetPhaseHistograms();
    p.nsPerEnabledProbe = probeCostNs();

    // Simulator throughput, profiler off vs on, on the same workload
    // as the SimulatorMcd benchmark. Histograms are reset after the
    // warm-up batches so probe counts cover exactly the timed items.
    auto simItemsPerSecond = [&](bool profiling,
                                 std::uint64_t *items_out) {
        telemetry::setProfiling(profiling);
        auto workload = BenchmarkFactory::create("gsm", 1u << 22);
        SimConfig config;
        Simulator sim(config, *workload);
        for (int i = 0; i < 3; ++i)
            sim.run(1000);
        telemetry::resetPhaseHistograms();
        using clock = std::chrono::steady_clock;
        std::uint64_t items = 0;
        auto start = clock::now();
        double seconds = 0.0;
        do {
            sim.run(1000);
            items += 1000;
            seconds =
                std::chrono::duration<double>(clock::now() - start)
                    .count();
        } while (seconds < min_seconds);
        if (items_out)
            *items_out = items;
        return static_cast<double>(items) / seconds;
    };

    p.itemsPerSecondOff = simItemsPerSecond(false, nullptr);
    std::uint64_t items_on = 0;
    p.itemsPerSecondOn = simItemsPerSecond(true, &items_on);

    // Probe density: how many sim.* probes fired per instruction of
    // the profiled run (issue/wakeup probes fire per cycle, so this
    // exceeds the number of instrumented phases).
    std::uint64_t probes = 0;
    for (int ph = 0; ph < telemetry::NUM_PHASES; ++ph) {
        auto phase = static_cast<telemetry::Phase>(ph);
        if (std::strncmp(telemetry::phaseName(phase), "sim.", 4) != 0)
            continue;
        probes += telemetry::phaseHistogram(phase).read().count;
    }
    telemetry::setProfiling(false);
    telemetry::resetPhaseHistograms();

    p.probesPerInstruction =
        items_on > 0
            ? static_cast<double>(probes) /
                  static_cast<double>(items_on)
            : 0.0;
    p.nsPerInstructionOff = p.itemsPerSecondOff > 0.0
                                ? 1e9 / p.itemsPerSecondOff
                                : 0.0;
    p.overheadOffPercent =
        p.nsPerInstructionOff > 0.0
            ? 100.0 * p.nsPerDisabledProbe * p.probesPerInstruction /
                  p.nsPerInstructionOff
            : 0.0;
    p.overheadOnPercent =
        p.itemsPerSecondOn > 0.0
            ? 100.0 * (p.itemsPerSecondOff / p.itemsPerSecondOn - 1.0)
            : 0.0;
    return p;
}

void
printText(const std::vector<BenchResult> &results,
          const ProfileOverhead &profile)
{
    std::printf("%-28s %14s %16s %12s %16s\n", "benchmark", "ns/op",
                "items/s", "iterations", "fe cycles/s");
    for (const BenchResult &r : results) {
        std::printf("%-28s %14.1f %16.0f %12llu", r.name.c_str(),
                    nsPerItem(r), itemsPerSecond(r),
                    static_cast<unsigned long long>(r.iterations));
        if (r.feCycles > 0)
            std::printf(" %16.0f", feCyclesPerSecond(r));
        std::printf("\n");
    }
    std::printf(
        "\ntelemetry probes (always compiled in, gated on MCD_PROF):\n"
        "  ns/probe off %.2f, on %.2f; %.2f probes/instruction\n"
        "  estimated off-path overhead %.3f%% of %.1f ns/instruction\n"
        "  measured on-path slowdown %.1f%% "
        "(%.0f -> %.0f instructions/s)\n",
        profile.nsPerDisabledProbe, profile.nsPerEnabledProbe,
        profile.probesPerInstruction, profile.overheadOffPercent,
        profile.nsPerInstructionOff, profile.overheadOnPercent,
        profile.itemsPerSecondOff, profile.itemsPerSecondOn);
}

void
printJson(const std::vector<BenchResult> &results,
          const ProfileOverhead &profile)
{
    std::string out = "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                      "\"items_per_second\": %.1f, \"iterations\": "
                      "%llu, \"items\": %llu, \"seconds\": %.6f",
                      r.name.c_str(), nsPerItem(r), itemsPerSecond(r),
                      static_cast<unsigned long long>(r.iterations),
                      static_cast<unsigned long long>(r.items),
                      r.seconds);
        out += buf;
        if (r.feCycles > 0) {
            std::snprintf(buf, sizeof(buf),
                          ", \"fe_cycles_per_second\": %.1f",
                          feCyclesPerSecond(r));
            out += buf;
        }
        if (r.simulations > 0) {
            std::snprintf(buf, sizeof(buf), ", \"simulations\": %llu",
                          static_cast<unsigned long long>(r.simulations));
            out += buf;
        }
        out += i + 1 < results.size() ? "},\n" : "}\n";
    }
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  ],\n  \"profile\": {\"ns_per_disabled_probe\": %.4f, "
        "\"ns_per_enabled_probe\": %.4f, "
        "\"probes_per_instruction\": %.4f, "
        "\"ns_per_instruction_off\": %.2f, "
        "\"items_per_second_off\": %.1f, "
        "\"items_per_second_on\": %.1f, "
        "\"overhead_off_percent\": %.4f, "
        "\"overhead_on_percent\": %.2f}\n}\n",
        profile.nsPerDisabledProbe, profile.nsPerEnabledProbe,
        profile.probesPerInstruction, profile.nsPerInstructionOff,
        profile.itemsPerSecondOff, profile.itemsPerSecondOn,
        profile.overheadOffPercent, profile.overheadOnPercent);
    out += buf;
    std::fputs(out.c_str(), stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    double min_seconds = 0.2;
    std::string filter;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                mcd_fatal("option '%s' needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--json") {
            json = true;
        } else if (arg == "--min-time-ms") {
            std::string v = value();
            char *end = nullptr;
            min_seconds = std::strtod(v.c_str(), &end) / 1e3;
            if (v.empty() || end != v.c_str() + v.size() ||
                min_seconds <= 0.0)
                mcd_fatal("--min-time-ms needs a positive duration, "
                          "not '%s'", v.c_str());
        } else if (arg == "--filter") {
            filter = value();
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: sim_microbench [--json] "
                        "[--min-time-ms <ms>] [--filter <substr>]\n");
            return 0;
        } else {
            mcd_fatal("unknown argument '%s' (try --help)",
                      arg.c_str());
        }
    }

    std::vector<BenchResult> results;
    for (const Bench &bench : allBenches()) {
        if (!filter.empty() &&
            bench.name.find(filter) == std::string::npos)
            continue;
        results.push_back(run(bench, min_seconds));
    }

    ProfileOverhead profile = measureProfileOverhead(min_seconds);

    if (json)
        printJson(results, profile);
    else
        printText(results, profile);
    return 0;
}
