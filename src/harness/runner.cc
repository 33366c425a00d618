#include "harness/runner.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "harness/experiment.hh"
#include "harness/parallel_sweep.hh"

namespace mcd
{

namespace
{

using serial::appendDouble;
using serial::appendI64;
using serial::appendU64;

void
appendCacheConfig(std::string &out, const CacheConfig &c)
{
    serial::appendString(out, c.name);
    appendU64(out, c.sizeBytes);
    appendI64(out, c.associativity);
    appendI64(out, c.lineBytes);
}

void
appendMemoryConfig(std::string &out, const MemoryHierarchyConfig &m)
{
    appendCacheConfig(out, m.l1i);
    appendCacheConfig(out, m.l1d);
    appendCacheConfig(out, m.l2);
    appendI64(out, static_cast<std::int64_t>(m.memory.accessLatency));
    appendI64(out,
              static_cast<std::int64_t>(m.memory.channelOccupancy));
    appendI64(out, m.l1Latency);
    appendI64(out, m.l2Latency);
}

void
appendCoreConfig(std::string &out, const CoreConfig &c)
{
    appendI64(out, c.decodeWidth);
    appendI64(out, c.intIssueWidth);
    appendI64(out, c.fpIssueWidth);
    appendI64(out, c.memIssueWidth);
    appendI64(out, c.retireWidth);
    appendI64(out, c.robSize);
    appendI64(out, c.intIqSize);
    appendI64(out, c.fpIqSize);
    appendI64(out, c.lsqSize);
    appendI64(out, c.intPhysRegs);
    appendI64(out, c.fpPhysRegs);
    appendI64(out, c.branchMispredictPenalty);
    appendI64(out, c.intAluCount);
    appendI64(out, c.fpAluCount);
    appendI64(out, c.intAluLatency);
    appendI64(out, c.intMultLatency);
    appendI64(out, c.intDivLatency);
    appendI64(out, c.fpAddLatency);
    appendI64(out, c.fpMultLatency);
    appendI64(out, c.fpDivLatency);
    appendI64(out, c.fpSqrtLatency);
    appendI64(out, c.mshrCount);
    appendMemoryConfig(out, c.memory);
    appendI64(out, c.intervalInstructions);
}

void
appendDvfsConfig(std::string &out, const DvfsConfig &d)
{
    appendDouble(out, d.freqMax);
    appendDouble(out, d.freqMin);
    appendDouble(out, d.voltMax);
    appendDouble(out, d.voltMin);
    appendI64(out, d.numPoints);
    appendDouble(out, d.slewNsPerMhz);
    appendDouble(out, d.jitterSigmaPs);
    appendDouble(out, d.syncWindowFraction);
}

void
appendEnergyConfig(std::string &out, const EnergyConfig &e)
{
    appendDouble(out, e.referenceVoltage);
    appendDouble(out, e.idleFraction);
    appendDouble(out, e.mcdClockOverhead);
    appendDouble(out, e.mainMemoryAccess);
}

/** The uncontrolled synchronous machine at `freq`: the operating
 *  points global DVFS picks from, the full-speed one a baseline every
 *  figure shares. */
ExperimentSpec
synchronousSpec(const RunnerConfig &config, const std::string &bench,
                Hertz freq)
{
    ExperimentSpec spec;
    spec.benchmark = bench;
    spec.mode = ClockMode::Synchronous;
    spec.startFreq = freq;
    spec.config = config;
    return spec;
}

} // namespace

void
RunnerConfig::applyEnvOverrides()
{
    instructions = envU64("MCD_INSNS", instructions);
    warmup = envU64("MCD_WARMUP", warmup, /*min=*/0);
    intervalInstructions = envInt("MCD_INTERVAL", intervalInstructions);
    jobs = envInt("MCD_JOBS", jobs);
    store = envString("MCD_STORE", store);
}

void
RunnerConfig::appendTo(std::string &out) const
{
    // v2: warm-up runs uncontrolled; the controller and interval
    // observer engage at the measurement boundary. Bumping the version
    // retires every v1 artifact (measured under controller-driven
    // warm-up) as a plain cache miss.
    constexpr std::uint64_t METHODOLOGY_VERSION = 2;
    appendU64(out, METHODOLOGY_VERSION);
    appendU64(out, instructions);
    appendU64(out, warmup);
    appendU64(out, clockSeed);
    appendI64(out, jitter ? 1 : 0);
    appendI64(out, intervalInstructions);
    appendCoreConfig(out, core);
    appendDvfsConfig(out, dvfs);
    appendEnergyConfig(out, energy);
}

std::string
RunnerConfig::describe() const
{
    return logging_detail::format(
        "insns=%llu warmup=%llu interval=%d seed=%llu jitter=%d",
        static_cast<unsigned long long>(instructions),
        static_cast<unsigned long long>(warmup), intervalInstructions,
        static_cast<unsigned long long>(clockSeed), jitter ? 1 : 0);
}

SimConfig
makeSimConfig(const RunnerConfig &config, ClockMode mode,
              Hertz start_freq)
{
    SimConfig sim_config;
    sim_config.core = config.core;
    sim_config.core.intervalInstructions = config.intervalInstructions;
    sim_config.dvfs = config.dvfs;
    sim_config.energy = config.energy;
    sim_config.clocks.mode = mode;
    sim_config.clocks.startFreq = start_freq;
    sim_config.clocks.seed = config.clockSeed;
    sim_config.clocks.jittered = config.jitter;
    return sim_config;
}

Runner::Runner(const RunnerConfig &config)
    : Runner(config, ArtifactCache::instance())
{
}

Runner::Runner(const RunnerConfig &config, ArtifactCache &cache)
    : config_(config), cache_(&cache)
{
}

SimStats
Runner::runMcdBaseline(const std::string &bench,
                       std::vector<IntervalProfile> *profile)
{
    // Both products are artifacts of one profiling run: the
    // ProfileSpec resolution publishes the paired SimStats, so the
    // experimentSpec() request below never simulates a second time.
    ProfileSpec spec;
    spec.benchmark = bench;
    spec.config = config_;
    if (profile)
        *profile = cache_->getOrRun(spec);
    return cache_->getOrRun(spec.experimentSpec());
}

OfflineResult
Runner::runOfflineDynamic(const std::string &bench, double target_deg,
                          const SimStats &mcd_base,
                          const std::vector<IntervalProfile> &profile)
{
    OfflineSearchSpec spec;
    spec.benchmark = bench;
    spec.targetDeg = target_deg;
    spec.mcdBase = mcd_base;
    spec.profile = profile;
    spec.config = config_;
    return cache_->getOrRun(spec);
}

OfflineResult
OfflineSearchSpec::build(ArtifactCache &cache) const
{
    DvfsModel dvfs(config.dvfs);
    double t_base = static_cast<double>(mcdBase.time);

    auto degradation = [&](const SimStats &s) {
        return (static_cast<double>(s.time) - t_base) / t_base;
    };

    // Every probe is an independent schedule replay of the same
    // benchmark; batches fan out across the sweep engine's workers
    // through the cache building this search, so a margin probed by an
    // earlier search of the same benchmark (the coarse grids of
    // Dynamic-1% and Dynamic-5% coincide) replays only once. Probes
    // deliberately keep this search's clock seed (no per-job
    // derivation): degradation is measured against `mcdBase`, which
    // consumed exactly that clock stream.
    using Margins = std::array<double, NUM_CONTROLLED>;
    struct Probe
    {
        Margins margins{};
        SimStats stats{};
        double deg = 0.0;
    };
    auto probeBatch = [&](const std::vector<Margins> &batch) {
        std::vector<ExperimentSpec> specs;
        specs.reserve(batch.size());
        for (const Margins &margins : batch) {
            ExperimentSpec spec;
            spec.benchmark = benchmark;
            spec.controller.name = "schedule";
            spec.controller.schedule =
                deriveSchedule(profile, dvfs, margins, config.core);
            spec.config = config;
            specs.push_back(std::move(spec));
        }
        auto stats = runExperiments(specs, config.jobs, cache);
        std::vector<Probe> probes(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            probes[i].margins = batch[i];
            probes[i].stats = stats[i];
            probes[i].deg = degradation(stats[i]);
        }
        return probes;
    };
    auto uniform = [](double m) {
        Margins margins;
        margins.fill(m);
        return margins;
    };

    OfflineResult best;
    bool have_best = false;
    auto feasible = [&](const Probe &probe) {
        return probe.deg <= targetDeg;
    };
    // Batches are scanned in index order with strict comparisons, so
    // the selected optimum never depends on execution schedule.
    auto consider = [&](const Probe &probe, double shared_margin) {
        if (feasible(probe) &&
            (!have_best ||
             probe.stats.chipEnergy < best.stats.chipEnergy)) {
            best.stats = probe.stats;
            best.margin = shared_margin;
            best.achievedDeg = probe.deg;
            have_best = true;
        }
        return feasible(probe);
    };

    // Phase 1: coarse grid over the shared margin. Margin is monotone:
    // larger margin -> higher frequencies -> less degradation, so the
    // smallest feasible grid point brackets the optimum. The grid
    // replaces the former 7-iteration binary search with one parallel
    // batch.
    constexpr int COARSE = 8;
    std::vector<Margins> coarse_batch;
    for (int k = 0; k <= COARSE; ++k)
        coarse_batch.push_back(uniform(static_cast<double>(k) / COARSE));
    auto coarse = probeBatch(coarse_batch);

    double shared = 1.0;
    double bracket_lo = 1.0; // largest infeasible margin below `shared`
    bool found = false;
    for (int k = 0; k <= COARSE; ++k) {
        double margin = static_cast<double>(k) / COARSE;
        if (consider(coarse[static_cast<std::size_t>(k)], margin) &&
            !found) {
            shared = margin;
            bracket_lo = static_cast<double>(k - 1) / COARSE;
            found = true;
        }
    }
    if (!found) {
        // Even margin = 1 (everything at f_max) missed the cap; hold
        // the least aggressive schedule, mirroring the cap-miss
        // fallback of the original search.
        best.stats = coarse.back().stats;
        best.margin = 1.0;
        best.achievedDeg = coarse.back().deg;
        return best;
    }

    // Phase 2: refine inside the bracketing coarse interval with a
    // second parallel batch (resolution 1/64, comparable to the old
    // binary search).
    if (shared > 0.0) {
        constexpr int FINE = 8;
        std::vector<Margins> fine_batch;
        std::vector<double> fine_margins;
        for (int j = 1; j < FINE; ++j) {
            double margin = bracket_lo +
                (shared - bracket_lo) * static_cast<double>(j) / FINE;
            fine_margins.push_back(margin);
            fine_batch.push_back(uniform(margin));
        }
        auto fine = probeBatch(fine_batch);
        for (std::size_t j = 0; j < fine.size(); ++j) {
            if (consider(fine[j], fine_margins[j])) {
                shared = std::min(shared, fine_margins[j]);
            }
        }
    }

    // Phase 3: per-domain refinement. A shared margin is gated by the
    // single most sensitive domain; the original shaker algorithm
    // distributes slack per domain. Each domain is lowered alone from
    // the shared point, shallow to deep, and stops at its first
    // infeasible factor, so a deeper factor is worth simulating only
    // if the one above it held. One parallel batch per factor level
    // probes the domains still going.
    const double factors[] = {0.5, 0.25, 0.0};
    std::array<std::vector<Probe>, NUM_CONTROLLED> solo; // shallow first
    std::vector<std::size_t> going(NUM_CONTROLLED);
    std::iota(going.begin(), going.end(), std::size_t{0});
    for (double factor : factors) {
        if (going.empty())
            break;
        std::vector<Margins> level_batch;
        for (std::size_t s : going) {
            Margins margins = uniform(shared);
            margins[s] = shared * factor;
            level_batch.push_back(margins);
        }
        auto level = probeBatch(level_batch);
        std::vector<std::size_t> still;
        for (std::size_t i = 0; i < going.size(); ++i) {
            solo[going[i]].push_back(level[i]);
            if (feasible(level[i]))
                still.push_back(going[i]);
        }
        going = std::move(still);
    }

    // Per domain, the deepest factor whose solo probe stays feasible,
    // read slot by slot as the former coordinate descent did; the scan
    // stops exactly where the probing above stopped.
    std::array<double, NUM_CONTROLLED> best_factor;
    best_factor.fill(1.0);
    for (std::size_t s = 0; s < NUM_CONTROLLED; ++s) {
        for (std::size_t f = 0; f < solo[s].size(); ++f) {
            if (!consider(solo[s][f], shared))
                break;
            best_factor[s] = factors[f];
        }
    }

    // Phase 4: combine the per-domain winners cumulatively (domains
    // interact, so each addition is validated with one run and
    // reverted if the cap breaks). The first addition needs no new
    // run: lowering a single domain from the shared point is exactly
    // its Phase-3 solo probe, already measured and accepted.
    Margins margins = uniform(shared);
    bool pristine = true; // margins still equal the shared point
    for (int slot = 0; slot < NUM_CONTROLLED; ++slot) {
        auto s = static_cast<std::size_t>(slot);
        if (best_factor[s] >= 1.0)
            continue;
        Margins trial = margins;
        trial[s] = shared * best_factor[s];
        if (trial == margins)
            continue;
        if (pristine) {
            margins = trial;
            pristine = false;
            continue;
        }
        auto probe = probeBatch({trial});
        if (consider(probe[0], shared))
            margins = trial;
    }
    return best;
}

Hertz
Runner::globalMatchedFrequency(double target_deg) const
{
    return std::clamp(
        config_.dvfs.freqMax / (1.0 + std::max(0.0, target_deg)),
        config_.dvfs.freqMin, config_.dvfs.freqMax);
}

GlobalResult
Runner::runGlobalAtDegradation(const std::string &bench,
                               double target_deg)
{
    GlobalResult result;
    result.freq = globalMatchedFrequency(target_deg);
    result.stats =
        cache_->getOrRun(synchronousSpec(config_, bench, result.freq));
    return result;
}

GlobalResult
Runner::runGlobalMatching(const std::string &bench, Tick target_time)
{
    GlobalMatchSpec spec;
    spec.benchmark = bench;
    spec.targetTime = target_time;
    spec.config = config_;
    return cache_->getOrRun(spec);
}

GlobalResult
GlobalMatchSpec::build(ArtifactCache &cache) const
{
    const Hertz f_max = config.dvfs.freqMax;
    const Hertz f_min = config.dvfs.freqMin;
    auto synchronous = [&](Hertz freq) {
        return cache.getOrRun(synchronousSpec(config, benchmark, freq));
    };

    // Fit T(f) = a + b/f from two calibration runs.
    Hertz f1 = f_max;
    Hertz f2 = 0.5 * (f_max + f_min);
    SimStats s1 = synchronous(f1);
    SimStats s2 = synchronous(f2);
    double t1 = static_cast<double>(s1.time);
    double t2 = static_cast<double>(s2.time);
    double b = (t2 - t1) / (1.0 / f2 - 1.0 / f1);
    double a = t1 - b / f1;

    auto solve = [&](double target) {
        double denom = target - a;
        if (denom <= 0.0 || b <= 0.0)
            return f_max;
        return std::clamp(b / denom, f_min, f_max);
    };

    double target = static_cast<double>(targetTime);
    Hertz f = solve(target);
    SimStats stats = synchronous(f);

    // One secant refinement against the measured point.
    double t_f = static_cast<double>(stats.time);
    if (std::abs(t_f - target) / target > 0.002) {
        // Re-fit b through the new measurement, keeping a.
        double b2 = (t_f - a) * f;
        double denom = target - a;
        if (denom > 0.0 && b2 > 0.0) {
            Hertz f_refined = std::clamp(b2 / denom, f_min, f_max);
            SimStats refined = synchronous(f_refined);
            if (std::abs(static_cast<double>(refined.time) - target) <
                std::abs(t_f - target)) {
                stats = refined;
                f = f_refined;
            }
        }
    }

    GlobalResult result;
    result.stats = stats;
    result.freq = f;
    return result;
}

} // namespace mcd
