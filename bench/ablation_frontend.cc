/**
 * @file
 * Ablation: front-end frequency scaling.
 *
 * Section 3 of the paper: "decreasing the frequency of the front end
 * causes a nearly linear performance degradation. For this reason, the
 * results presented are with the front end frequency fixed at 1.0 GHz",
 * and Section 7 names effective front-end scaling as future work.
 *
 * Part 1 pins the front end at a sequence of fixed frequencies and
 * measures the degradation, checking the near-linearity claim.
 * Part 2 runs the future-work extension: Attack/Decay applied to the
 * front end as well, with ROB occupancy as its queue signal.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "figures.hh"
#include "common/logging.hh"
#include "sweep_util.hh"

using namespace mcd;
using namespace mcd::bench;

namespace
{

/** Pins the front end; back-end domains stay at maximum. */
class PinnedFrontEndController : public FrequencyController
{
  public:
    explicit PinnedFrontEndController(Hertz fe_freq)
        : fe_freq_(fe_freq)
    {
    }

    void
    onStart(ClockSystem &clocks) override
    {
        clocks.clock(DomainId::FrontEnd).setFrequencyImmediate(
            fe_freq_);
        for (int slot = 0; slot < NUM_CONTROLLED; ++slot)
            clocks.clock(controlledDomainId(slot))
                .setFrequencyImmediate(clocks.dvfs().config().freqMax);
    }

    void
    onInterval(const IntervalStats &stats, ClockSystem &clocks) override
    {
        (void)stats;
        (void)clocks;
    }

  private:
    Hertz fe_freq_;
};

/**
 * This ablation's controller is not part of the library: registering
 * it here is the extension path the registry exists for — one
 * registration and the spec-driven batch helpers can drive it. It is
 * registered only when this figure runs, so `mcd_cli list` does not
 * show it.
 */
void
registerPinnedFrontEnd()
{
    ControllerRegistry::instance().add(
        "pinned_frontend",
        "front end pinned to `freq` (Hz); back end at maximum",
        [](const ControllerSpec &spec)
            -> std::unique_ptr<FrequencyController> {
            ControllerRegistry::checkParams(spec, {"freq"});
            auto it = spec.params.find("freq");
            if (it == spec.params.end())
                mcd_fatal("controller 'pinned_frontend' requires a "
                          "'freq' parameter (Hz)");
            return std::make_unique<PinnedFrontEndController>(
                it->second);
        });
}

ControllerSpec
pinnedFrontEndSpec(Hertz fe_freq)
{
    ControllerSpec spec;
    spec.name = "pinned_frontend";
    spec.params["freq"] = fe_freq;
    return spec;
}

} // namespace

void
bench::ablationFrontend()
{
    std::printf("=== Ablation: front-end frequency scaling ===\n");
    registerPinnedFrontEnd();
    RunnerConfig config = standardConfig();
    printMethodology(config);
    Runner runner(config);

    auto names = sweepBenchmarks();
    auto baselines = computeBaselines(runner, names);

    TextTable part1("Part 1: fixed front-end frequency "
                    "(back end at maximum), vs baseline MCD");
    part1.setHeader({"front-end freq", "freq cut", "perf degradation",
                     "deg / cut (1.0 = perfectly linear)"});
    for (Hertz fe : {0.9e9, 0.8e9, 0.7e9, 0.6e9}) {
        std::fprintf(stderr, "  front end at %.1f GHz\n", fe / 1e9);
        auto stats = runVariant(runner, names, pinnedFrontEndSpec(fe),
                                ClockMode::Mcd, config.dvfs.freqMax);
        std::vector<ComparisonMetrics> vs_mcd;
        for (std::size_t i = 0; i < names.size(); ++i)
            vs_mcd.push_back(compare(baselines.mcd.at(names[i]),
                                     stats[i]));
        double cut = 1.0e9 / fe - 1.0;
        double deg =
            meanOf(vs_mcd, &ComparisonMetrics::perfDegradation);
        part1.addRow({ghz(fe, 1), pct(cut), pct(deg),
                      num(deg / cut, 2)});
    }
    std::printf("%s\n", part1.render().c_str());
    std::printf("paper claim: front-end slowdown causes nearly linear "
                "degradation.\nIn this model the ratio approaches 1.0 "
                "only for applications whose IPC\napproaches the fetch "
                "bandwidth; memory-bound applications barely notice\n"
                "(see EXPERIMENTS.md for the deviation discussion).\n\n");

    TextTable part2("Part 2: Attack/Decay with and without the "
                    "front-end extension, vs baseline MCD");
    part2.setHeader({"controller", "perf degradation", "energy savings",
                     "EDP improvement"});
    {
        std::fprintf(stderr, "  A/D variants on %zu benchmarks\n",
                     names.size());
        auto ad_stats = runVariant(runner, names,
                                   attackDecaySpec(scaledAttackDecay()));
        auto fe_stats = runVariant(
            runner, names,
            attackDecaySpec(scaledAttackDecay(),
                            "frontend_attack_decay"),
            ClockMode::Mcd, config.dvfs.freqMax);
        std::vector<ComparisonMetrics> plain, extended;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const SimStats &base = baselines.mcd.at(names[i]);
            plain.push_back(compare(base, ad_stats[i]));
            extended.push_back(compare(base, fe_stats[i]));
        }
        auto row = [&part2](const char *name,
                            const std::vector<ComparisonMetrics> &all) {
            part2.addRow(
                {name,
                 pct(meanOf(all, &ComparisonMetrics::perfDegradation)),
                 pct(meanOf(all, &ComparisonMetrics::energySavings)),
                 pct(meanOf(all, &ComparisonMetrics::edpImprovement))});
        };
        row("Attack/Decay (front end fixed, paper)", plain);
        row("Attack/Decay + front-end scaling (future work)", extended);
    }
    std::printf("%s", part2.render().c_str());
}
