/**
 * @file
 * Regenerates Figures 2 and 3 of the paper from one Attack/Decay run
 * of `epic` (decode), starting at instruction 0.
 *
 * Figure 2: (a) the percent change in load/store queue utilization
 * between successive intervals, against the +/- DeviationThreshold
 * band (1.75 %), and (b) the load/store domain frequency the
 * Attack/Decay algorithm chooses. The paper shows the 4-5M instruction
 * window; we print the proportional window of our scaled run.
 *
 * Figure 3: (a) floating-point issue queue utilization and (b) the
 * floating-point domain frequency, over the whole run. The paper's
 * signature shape: the FP domain is unused except for two distinct
 * phases; frequency decays while unused and attacks upward when the
 * phases begin. The paper plots 0-6.7M instructions with
 * 10k-instruction intervals (~670 samples); our scaled run keeps the
 * same number of control epochs, compressing the instruction axis.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "figures.hh"
#include "bench_util.hh"
#include "eval/trace.hh"
#include "harness/metrics.hh"

using namespace mcd;
using namespace mcd::bench;

namespace
{

/** One control interval of one domain. */
struct Sample
{
    std::uint64_t instructions; //!< cumulative, at the interval's end
    double utilization;
    double freq;
};

/**
 * Print the figure's banner and methodology, then return the `slot`
 * domain's per-interval samples. The trace is one artifact shared by
 * both figures, so a warm store replays either without simulating.
 */
std::vector<Sample>
epicSamples(const char *banner, int slot)
{
    std::printf("%s", banner);
    RunnerConfig config = standardConfig();
    config.warmup = 0; // the figures start at instruction 0
    printMethodology(config);

    TraceSpec spec;
    spec.benchmark = "epic";
    spec.controller = attackDecaySpec(scaledAttackDecay());
    spec.config = config;
    EvalTrace trace = ArtifactCache::instance().getOrRun(spec);

    std::vector<Sample> samples;
    std::uint64_t insns = 0;
    for (const TracePoint &point : trace.points) {
        insns += point.instructions;
        const TraceDomainPoint &domain =
            point.domains[static_cast<std::size_t>(slot)];
        samples.push_back({insns, domain.queueUtilization,
                           domain.frequency});
    }
    return samples;
}

/** The start of one sketch row: `freq` as a 0.25-1.0 GHz bar. */
void
printBar(std::uint64_t instructions, double freq)
{
    double f = freq / 1e9;
    int bar = static_cast<int>((f - 0.25) / 0.75 * 50.0 + 0.5);
    std::printf("%9llu |%-50s| %.2f GHz  ",
                static_cast<unsigned long long>(instructions),
                std::string(static_cast<std::size_t>(std::max(bar, 0)),
                            '#')
                    .c_str(),
                f);
}

} // namespace

void
bench::fig2()
{
    auto samples = epicSamples("=== Figure 2: load/store domain "
                               "statistics for epic decode ===\n",
                               CTL_LS);

    // The paper's window is 4-5M of 6.7M instructions; take the same
    // relative slice (60 % - 75 % of the run).
    std::size_t begin = samples.size() * 60 / 100;
    std::size_t end = samples.size() * 75 / 100;

    std::printf("deviation threshold: +/- %s\n\n",
                pct(scaledAttackDecay().deviationThreshold, 2).c_str());
    std::printf("instructions,lsq_util_change_pct,ls_freq_ghz\n");
    auto change = [&](std::size_t i) {
        double prev = i > 0 ? samples[i - 1].utilization : 0.0;
        return prev > 0.0 ? (samples[i].utilization - prev) / prev
                          : 0.0;
    };
    for (std::size_t i = begin; i < end && i < samples.size(); ++i) {
        std::printf("%llu,%.3f,%.4f\n",
                    static_cast<unsigned long long>(
                        samples[i].instructions),
                    change(i) * 100.0, samples[i].freq / 1e9);
    }

    std::printf("\nFigure 2(b) sketch (load/store frequency):\n");
    for (std::size_t i = begin; i < end && i < samples.size(); ++i) {
        printBar(samples[i].instructions, samples[i].freq);
        std::printf("d=%+.1f%%\n", change(i) * 100.0);
    }
}

void
bench::fig3()
{
    auto samples = epicSamples("=== Figure 3: floating-point domain "
                               "statistics for epic decode ===\n",
                               CTL_FP);

    std::printf("instructions,fiq_utilization,fp_freq_ghz\n");
    for (const auto &s : samples) {
        std::printf("%llu,%.3f,%.4f\n",
                    static_cast<unsigned long long>(s.instructions),
                    s.utilization, s.freq / 1e9);
    }

    // Compact ASCII rendition of Figure 3(b).
    std::printf("\nFigure 3(b) sketch (each row = 1/40 of the run; "
                "# bar = FP frequency 0.25-1.0 GHz, u = utilization):\n");
    std::size_t stride = samples.size() / 40 + 1;
    for (std::size_t i = 0; i < samples.size(); i += stride) {
        printBar(samples[i].instructions, samples[i].freq);
        std::printf("u=%.2f\n", samples[i].utilization);
    }
}
