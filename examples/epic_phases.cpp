/**
 * @file
 * Phase-tracking example: runs `epic` (the paper's Figure 2/3
 * application) under Attack/Decay and prints a per-interval trace of
 * all three controlled domains — queue utilization, chosen frequency
 * and voltage — so the attack and decay episodes are visible.
 *
 * Usage: epic_phases [instructions] [interval]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/experiment.hh"
#include "harness/table.hh"

int
main(int argc, char **argv)
{
    std::uint64_t instructions =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 120000;
    int interval =
        argc > 2 ? std::atoi(argv[2]) : 1000;

    mcd::RunnerConfig config;
    config.instructions = instructions;
    config.warmup = 0;
    config.intervalInstructions = interval;
    mcd::DvfsModel dvfs(config.dvfs);

    std::printf("epic under Attack/Decay: %llu instructions, "
                "%d-instruction intervals\n\n",
                static_cast<unsigned long long>(instructions),
                interval);
    std::printf("%10s  %21s  %21s  %21s\n", "insts",
                "integer (util/GHz/V)", "fp (util/GHz/V)",
                "load-store (util/GHz/V)");

    mcd::ExperimentSpec spec;
    spec.benchmark = "epic";
    spec.controller = mcd::attackDecaySpec(mcd::AttackDecayConfig{});
    spec.config = config;
    auto controller =
        mcd::ControllerRegistry::instance().create(spec.controller);

    std::uint64_t insns = 0;
    int printed = 0;
    mcd::SimStats stats = mcd::runWithController(
        spec, controller.get(), mcd::ArtifactCache::instance(),
        [&](const mcd::IntervalStats &s) {
            insns += s.instructions;
            if (printed++ % 5 != 0)
                return; // print every 5th interval
            auto cell = [&dvfs](const mcd::DomainIntervalStats &d) {
                static thread_local char buf[64];
                std::snprintf(buf, sizeof(buf), "%6.2f %5.3f %5.3f",
                              d.queueUtilization, d.frequency / 1e9,
                              dvfs.voltage(d.frequency));
                return std::string(buf);
            };
            std::printf("%10llu  %21s  %21s  %21s\n",
                        static_cast<unsigned long long>(insns),
                        cell(s.domains[mcd::CTL_INT]).c_str(),
                        cell(s.domains[mcd::CTL_FP]).c_str(),
                        cell(s.domains[mcd::CTL_LS]).c_str());
        });

    std::printf("\nrun complete: CPI %.2f, EPI %.2f nJ, %.1f us, "
                "%.1f uJ\n",
                stats.cpi, stats.epi, stats.time / 1e6,
                stats.chipEnergy / 1e3);
    return 0;
}
