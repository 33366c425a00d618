/**
 * @file
 * Quickstart: simulate one benchmark on the MCD processor under the
 * Attack/Decay controller and print the headline numbers against the
 * baseline MCD machine (all domains at 1 GHz).
 *
 * Usage: quickstart [benchmark] [instructions]
 * Default: epic, 200000 instructions.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/experiment.hh"
#include "harness/table.hh"

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "epic";
    std::uint64_t instructions =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200000;

    mcd::RunnerConfig config;
    config.instructions = instructions;
    config.warmup = instructions / 5;
    mcd::Runner runner(config);

    std::printf("benchmark: %s (%llu instructions after warm-up)\n",
                bench.c_str(),
                static_cast<unsigned long long>(instructions));

    mcd::SimStats base = runner.runMcdBaseline(bench);
    mcd::ExperimentSpec spec;
    spec.benchmark = bench;
    spec.controller = mcd::attackDecaySpec(mcd::AttackDecayConfig{});
    spec.config = config;
    mcd::SimStats ad = mcd::ArtifactCache::instance().getOrRun(spec);
    mcd::ComparisonMetrics m = mcd::compare(base, ad);

    mcd::TextTable table("baseline MCD vs Attack/Decay");
    table.setHeader({"metric", "baseline", "attack/decay"});
    table.addRow({"CPI", mcd::num(base.cpi), mcd::num(ad.cpi)});
    table.addRow({"EPI (nJ)", mcd::num(base.epi), mcd::num(ad.epi)});
    table.addRow({"time (us)", mcd::num(base.time / 1e6),
                  mcd::num(ad.time / 1e6)});
    table.addRow({"energy (uJ)", mcd::num(base.chipEnergy / 1e3),
                  mcd::num(ad.chipEnergy / 1e3)});
    std::printf("%s\n", table.render().c_str());

    std::printf("performance degradation : %s\n",
                mcd::pct(m.perfDegradation).c_str());
    std::printf("energy savings          : %s\n",
                mcd::pct(m.energySavings).c_str());
    std::printf("energy-delay improvement: %s\n",
                mcd::pct(m.edpImprovement).c_str());
    std::printf("EPI reduction           : %s\n",
                mcd::pct(m.epiReduction).c_str());

    std::printf("\nworkload character (baseline run):\n");
    std::printf("  branches %llu, mispredict rate %s\n",
                static_cast<unsigned long long>(base.branches),
                mcd::pct(base.branches
                             ? static_cast<double>(base.mispredicts) /
                                   static_cast<double>(base.branches)
                             : 0.0).c_str());
    std::printf("  loads %llu, stores %llu, L1D misses %llu, "
                "L2 misses %llu\n",
                static_cast<unsigned long long>(base.loads),
                static_cast<unsigned long long>(base.stores),
                static_cast<unsigned long long>(base.l1dMisses),
                static_cast<unsigned long long>(base.l2Misses));
    std::printf("  domain energy (uJ): FE %.1f  INT %.1f  FP %.1f  "
                "LS %.1f\n",
                base.domainEnergy[0] / 1e3, base.domainEnergy[1] / 1e3,
                base.domainEnergy[2] / 1e3, base.domainEnergy[3] / 1e3);
    return 0;
}
