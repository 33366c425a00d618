/**
 * @file
 * Tests for the batch sweep engine: the thread pool, deterministic
 * per-job seed derivation, and the central property that a sweep (and
 * everything layered on it, including the offline Dynamic-X% search)
 * produces bit-identical results for any worker count, with
 * aggregation independent of completion order.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hh"
#include "harness/experiment.hh"
#include "harness/metrics.hh"
#include "harness/parallel_sweep.hh"

namespace mcd
{
namespace
{

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusableBetweenBatches)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 10 * (batch + 1));
    }
}

TEST(ThreadPool, ClampsWorkerCountToAtLeastOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 1);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(DeriveJobSeed, DeterministicAndDistinct)
{
    EXPECT_EQ(deriveJobSeed(12345, 0), deriveJobSeed(12345, 0));
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seeds.insert(deriveJobSeed(12345, i));
    EXPECT_EQ(seeds.size(), 1000u);
    // Different bases give different streams.
    EXPECT_NE(deriveJobSeed(1, 0), deriveJobSeed(2, 0));
}

TEST(ParallelSweep, ForEachCoversEveryIndexOnce)
{
    ParallelSweep sweep(4);
    std::vector<std::atomic<int>> hits(257);
    sweep.forEach(hits.size(),
                  [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelSweep, MapReturnsResultsInIndexOrder)
{
    ParallelSweep sweep(8);
    auto values = sweep.map<std::size_t>(
        100, [](std::size_t i) { return i * i; });
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(values[i], i * i);
}

TEST(ParallelSweep, ForEachRethrowsLowestIndexException)
{
    ParallelSweep sweep(4);
    try {
        sweep.forEach(16, [](std::size_t i) {
            if (i == 3 || i == 11)
                throw std::runtime_error("job " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 3");
    }
}

TEST(ParallelSweep, DefaultWorkersHonorsMcdJobs)
{
    setenv("MCD_JOBS", "3", 1);
    EXPECT_EQ(ParallelSweep::defaultWorkers(), 3);
    EXPECT_EQ(ParallelSweep(0).workers(), 3);
    EXPECT_EQ(ParallelSweep(5).workers(), 5); // explicit wins
    setenv("MCD_JOBS", "junk", 1);
    EXPECT_GE(ParallelSweep::defaultWorkers(), 1);
    unsetenv("MCD_JOBS");
    EXPECT_GE(ParallelSweep::defaultWorkers(), 1);
}

RunnerConfig
tinyConfig()
{
    RunnerConfig config;
    config.instructions = 8000;
    config.warmup = 2000;
    config.intervalInstructions = 500;
    return config;
}

/** A Runner on the clock stream derived from `seed_index`. */
Runner
seededRunner(std::uint64_t seed_index)
{
    RunnerConfig config = tinyConfig();
    config.clockSeed = deriveJobSeed(config.clockSeed, seed_index);
    return Runner(config);
}

/**
 * One job per tiny benchmark, as the figure batches write them: job i
 * returns `run(runner, name)` on the clock stream derived from i.
 */
std::vector<SimStats>
tinySweep(int workers,
          const std::function<SimStats(Runner &, const std::string &)> &run)
{
    const std::vector<std::string> names = {"adpcm", "gsm", "mcf", "epic",
                                            "swim"};
    return ParallelSweep(workers).map<SimStats>(
        names.size(), [&](std::size_t i) {
            Runner runner = seededRunner(i);
            return run(runner, names[i]);
        });
}

SimStats
baseline(Runner &runner, const std::string &name)
{
    return runner.runMcdBaseline(name);
}

void
expectIdenticalStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.feCycles, b.feCycles);
    EXPECT_EQ(a.time, b.time);
    // Bit-identical, not approximately equal: the whole point is that
    // scheduling never perturbs a single floating-point operation.
    EXPECT_EQ(a.chipEnergy, b.chipEnergy);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.epi, b.epi);
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        EXPECT_EQ(a.domainEnergy[static_cast<std::size_t>(d)],
                  b.domainEnergy[static_cast<std::size_t>(d)]);
    }
}

TEST(ParallelSweep, OneWorkerAndManyWorkersAreBitIdentical)
{
    auto serial = tinySweep(1, baseline);
    auto parallel4 = tinySweep(4, baseline);
    auto parallel8 = tinySweep(8, baseline);

    ASSERT_EQ(serial.size(), 5u);
    ASSERT_EQ(parallel4.size(), 5u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectIdenticalStats(serial[i], parallel4[i]);
        expectIdenticalStats(serial[i], parallel8[i]);
    }
}

TEST(ParallelSweep, SeedIndexSelectsTheClockStream)
{
    // Same seed index => identical machine; different seed index =>
    // different jittered clock stream => different timings.
    const std::vector<std::uint64_t> seed_indices = {7, 7, 8};
    auto results = ParallelSweep(3).map<SimStats>(
        seed_indices.size(), [&](std::size_t i) {
            return seededRunner(seed_indices[i]).runMcdBaseline("gsm");
        });
    expectIdenticalStats(results[0], results[1]);
    EXPECT_NE(results[0].time, results[2].time);
}

TEST(ParallelSweep, AggregationIsIndependentOfCompletionOrder)
{
    // Aggregate the same batch through the metrics layer from result
    // vectors produced under different worker counts (and hence
    // different completion orders): because results land in index
    // order, every floating-point accumulation is performed in the
    // same sequence and the aggregate is bit-identical.
    auto aggregate = [](int workers) {
        auto base = tinySweep(workers, baseline);
        auto variant = tinySweep(
            workers, [](Runner &runner, const std::string &name) {
                ExperimentSpec spec;
                spec.benchmark = name;
                spec.controller = attackDecaySpec(AttackDecayConfig{});
                spec.config = runner.config();
                return runExperiment(spec, runner.cache());
            });
        std::vector<ComparisonMetrics> all;
        for (std::size_t i = 0; i < base.size(); ++i)
            all.push_back(compare(base[i], variant[i]));
        return std::pair<double, double>(
            meanOf(all, &ComparisonMetrics::energySavings),
            powerPerfRatio(all));
    };

    auto [mean1, ppr1] = aggregate(1);
    auto [mean2, ppr2] = aggregate(2);
    auto [mean7, ppr7] = aggregate(7);
    EXPECT_EQ(mean1, mean2);
    EXPECT_EQ(mean1, mean7);
    EXPECT_EQ(ppr1, ppr2);
    EXPECT_EQ(ppr1, ppr7);
}

TEST(ParallelSweep, OfflineSearchIsBitIdenticalForAnyWorkerCount)
{
    // The offline Dynamic-X% margin search fans its schedule probes
    // through the engine; its result must not depend on the worker
    // count either.
    auto search = [](int jobs) {
        RunnerConfig config;
        config.instructions = 8000;
        config.warmup = 2000;
        config.intervalInstructions = 500;
        config.jobs = jobs;
        Runner runner(config);
        std::vector<IntervalProfile> profile;
        SimStats mcd = runner.runMcdBaseline("gsm", &profile);
        return runner.runOfflineDynamic("gsm", 0.05, mcd, profile);
    };

    OfflineResult serial = search(1);
    OfflineResult parallel = search(6);
    EXPECT_EQ(serial.margin, parallel.margin);
    EXPECT_EQ(serial.achievedDeg, parallel.achievedDeg);
    expectIdenticalStats(serial.stats, parallel.stats);
}

} // namespace
} // namespace mcd
