/**
 * @file
 * Behavioral specifications for the paper's 30 benchmark applications
 * (Table 5): 9 MediaBench, 10 Olden, 7 SPEC2000 integer, 4 SPEC2000
 * floating point. Each spec is a synthetic stand-in tuned to the
 * application's published class — instruction mix, working set, branch
 * predictability, pointer-chasing, ILP and phase structure — per
 * DESIGN.md substitution 1. The SPEC FP `mesa` is registered as
 * `mesa_spec` to keep names unique.
 */

#ifndef MCD_WORKLOAD_BENCHMARK_FACTORY_HH
#define MCD_WORKLOAD_BENCHMARK_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace mcd
{

/**
 * The paper's benchmark applications, resolved through the open
 * ScenarioRegistry: `spec`/`create` accept any registered scenario,
 * including the parametric `synthetic:` family and scenarios user code
 * registers, so every name-driven consumer (bench binaries,
 * MCD_BENCHMARKS, mcd_cli) is automatically open too.
 */
class BenchmarkFactory
{
  public:
    /** All 30 paper benchmark names, in the paper's Figure 4 order. */
    static const std::vector<std::string> &allNames();

    /** Registered scenario names belonging to one suite
     *  ("MediaBench"/"Olden"/"Spec2000"/...). */
    static std::vector<std::string> suiteNames(const std::string &suite);

    /** The behavioral spec for a scenario; fatal on unknown names. */
    static BenchmarkSpec spec(const std::string &name);

    /** Instantiate the generator for a scenario. */
    static std::unique_ptr<WorkloadGenerator>
    create(const std::string &name, std::uint64_t horizon);

    /**
     * The raw Table 5 spec of one paper application, bypassing the
     * ScenarioRegistry (which is seeded from exactly these; ordinary
     * callers want `spec`).
     */
    static BenchmarkSpec paperSpec(const std::string &name);
};

} // namespace mcd

#endif // MCD_WORKLOAD_BENCHMARK_FACTORY_HH
