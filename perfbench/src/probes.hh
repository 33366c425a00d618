/**
 * @file
 * Layer probes for the traced run: direct, timed calls into single
 * layers of the library on the workload's own apps, so each layer's
 * cost is measured where the work happens rather than inferred from
 * whole-run time. Probes run with the phase profiler off.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "harness/experiment.hh"
#include "spans.hh"

namespace perfbench
{

/** Steps a simulator by a number of committed instructions. */
using Advance = std::function<void(mcd::Simulator &, std::uint64_t)>;

/**
 * The run the harness makes for `spec` (warm-up uncontrolled, the
 * controller engaged at the measurement boundary), made without the
 * harness: no cache, no store, no runner. `advance` steps each phase;
 * by default one `runTo` per phase.
 */
mcd::SimStats simulateDirect(const mcd::ExperimentSpec &spec,
                             const Advance &advance = {});

/** Harness-resolved versus direct `Simulator::run` cost of one spec
 *  list, plus the simulated counts of the direct runs. */
struct CoreProbe
{
    double resolveNs = 0.0; //!< runExperiments on a cleared cache
    double directNs = 0.0;  //!< timed Simulator::run slices
    std::uint64_t feEdges = 0;    //!< front-end cycles stepped
    std::uint64_t committed = 0;  //!< instructions stepped
    mcd::SimStats measured;       //!< summed measured-window counts
    std::uint64_t mismatches = 0; //!< direct stats != resolved stats
    std::uint64_t units = 0;
};

/** Resolve each spec through the harness, then re-run it directly in
 *  slices; the two results must agree bit for bit. */
CoreProbe probeCore(const std::vector<mcd::ExperimentSpec> &specs,
                    SpanLog &log, std::uint64_t parent);

/** Nanoseconds per `DomainClock::advance`, with periodic retargeting
 *  so frequency slews are part of the mix. */
double probeClockNsPerEdge(std::uint64_t seed, std::uint64_t edges);

/** Workload generation, data-cache and branch-predictor kernels
 *  driven by the apps' own micro-op streams. */
struct StreamProbe
{
    double genNs = 0.0;
    double memNs = 0.0;
    double predNs = 0.0;
    std::uint64_t uops = 0;
    std::uint64_t accesses = 0;
    std::uint64_t lookups = 0;
};

StreamProbe probeStreams(const std::vector<std::string> &apps,
                         std::uint64_t horizon);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
