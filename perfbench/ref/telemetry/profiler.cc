#include "telemetry/profiler.hh"

#include <array>
#include <cstdlib>
#include <string>

namespace mcd
{
namespace telemetry
{

namespace
{

bool
envProfiling()
{
    const char *v = std::getenv("MCD_PROF");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::array<Histogram *, NUM_PHASES> &
histograms()
{
    // First use registers every phase histogram in the registry; the
    // pointers are then stable for the process. Only reached when
    // profiling is (or was) on, so the disabled path never pays for
    // the map lookup.
    static std::array<Histogram *, NUM_PHASES> hists = [] {
        std::array<Histogram *, NUM_PHASES> a{};
        StatRegistry &reg = StatRegistry::instance();
        for (int i = 0; i < NUM_PHASES; ++i)
            a[i] = &reg.histogram(
                std::string("prof.") +
                phaseName(static_cast<Phase>(i)));
        return a;
    }();
    return hists;
}

} // namespace

bool g_profiling = envProfiling();

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::SimCommit: return "sim.commit";
      case Phase::SimFetch: return "sim.fetch";
      case Phase::SimIssueInt: return "sim.issue.int";
      case Phase::SimIssueFp: return "sim.issue.fp";
      case Phase::SimIssueLs: return "sim.issue.ls";
      case Phase::SimWakeup: return "sim.wakeup";
      case Phase::SimInterval: return "sim.interval";
      case Phase::CkptSave: return "ckpt.save";
      case Phase::CkptRestore: return "ckpt.restore";
      case Phase::DiskRead: return "disk.read";
      case Phase::DiskWrite: return "disk.write";
      case Phase::PoolTask: return "pool.task";
      case Phase::COUNT: break;
    }
    return "unknown";
}

void
setProfiling(bool on)
{
    if (on)
        histograms(); // register before probes start firing
    g_profiling = on;
}

Histogram &
phaseHistogram(Phase p)
{
    return *histograms()[static_cast<int>(p)];
}

void
resetPhaseHistograms()
{
    for (Histogram *h : histograms())
        h->reset();
}

} // namespace telemetry
} // namespace mcd
