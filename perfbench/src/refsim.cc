// Compiled against perfbench/ref/ only, with -Dmcd=mcdref (see
// CMakeLists.txt): every `mcd` below is the reference copy.
#include "refsim.hh"

#include "core/simulator.hh"
#include "workload/benchmark_factory.hh"

namespace perfbench
{

std::uint64_t
referenceSimulation(const char *bench, std::uint64_t instructions)
{
    mcd::SimConfig config;
    config.clocks.mode = mcd::ClockMode::Mcd;
    config.clocks.startFreq = config.dvfs.freqMax;
    auto workload = mcd::BenchmarkFactory::create(bench, instructions);
    mcd::Simulator sim(config, *workload, nullptr);
    sim.runTo(instructions);
    return sim.committed();
}

} // namespace perfbench
