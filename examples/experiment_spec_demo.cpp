/**
 * @file
 * The declarative experiment layer in ~60 lines: describe runs as
 * ExperimentSpecs (scenario x controller x methodology), execute them
 * as one batch on the sweep workers, and let the process-wide
 * ArtifactCache deduplicate anything two experiments share.
 *
 * Build and run:
 *   cmake --build build --target example_experiment_spec_demo
 *   ./build/example_experiment_spec_demo
 */

#include <cstdint>
#include <cstdio>
#include <vector>

#include "harness/experiment.hh"
#include "workload/scenario_registry.hh"

using namespace mcd;

int
main()
{
    RunnerConfig config;
    config.instructions = 20000;
    config.warmup = 5000;
    config.intervalInstructions = 500;
    config.applyEnvOverrides();

    // Three scenarios: two paper applications and one parametric
    // synthetic instance — any name the ScenarioRegistry resolves.
    std::vector<std::string> scenarios = {
        "gsm", "mcf", "synthetic:mem=0.8,ilp=4,phases=6"};

    // Two machines per scenario: the MCD baseline (profiling
    // controller) and Attack/Decay, both described declaratively.
    ControllerSpec baseline;
    baseline.name = "profiling";
    ControllerSpec ad = attackDecaySpec(AttackDecayConfig{});

    std::vector<ExperimentSpec> specs;
    for (const auto &scenario : scenarios) {
        for (const ControllerSpec &controller : {baseline, ad}) {
            ExperimentSpec spec;
            spec.benchmark = scenario;
            spec.controller = controller;
            spec.config = config;
            specs.push_back(spec);
        }
    }
    // The baseline specs again — the cache makes the repeats free.
    for (const auto &scenario : scenarios) {
        ExperimentSpec spec;
        spec.benchmark = scenario;
        spec.controller = baseline;
        spec.config = config;
        specs.push_back(spec);
    }

    auto results = runExperiments(specs, config.jobs);

    std::printf("%-40s %-22s %12s %14s\n", "scenario", "controller",
                "time (ps)", "energy (nJ)");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::printf("%-40s %-22s %12llu %14.1f\n",
                    specs[i].benchmark.c_str(),
                    specs[i].controller.name.c_str(),
                    static_cast<unsigned long long>(results[i].time),
                    results[i].chipEnergy);
    }

    // The cache's own lookup and hit counts also include each run's
    // warm-up checkpoint request, so count specs here.
    std::uint64_t simulated = ArtifactCache::instance().simulationsRun();
    std::printf("\n%zu specs requested, %llu simulations run, "
                "%llu served from the cache\n",
                specs.size(), static_cast<unsigned long long>(simulated),
                static_cast<unsigned long long>(specs.size() - simulated));
    return 0;
}
