/**
 * @file
 * Phase profiler: RAII scoped wall-clock timers over the simulator's
 * per-cycle stages, checkpoint save/restore, artifact disk I/O, and
 * ThreadPool task execution.
 *
 * The timers are compiled in always but gated on one global flag, so
 * the disabled path is a single predicted-not-taken branch per probe
 * (measured by `sim_microbench --json`, "profile" section). Enable
 * with `MCD_PROF=1` in the environment or `setProfiling(true)`
 * (`mcd_cli profile` / `--profile` do the latter).
 *
 * Timers read std::chrono::steady_clock and record elapsed
 * nanoseconds into per-phase log2 histograms published in the
 * StatRegistry under `prof.<phase>`. They never touch simulated
 * state (Tick, energy, RNGs), so a profiled run's simulation results
 * are byte-identical to an unprofiled run's — pinned by
 * tests/telemetry_test.cc and the CI telemetry-smoke job.
 */

#ifndef MCD_TELEMETRY_PROFILER_HH
#define MCD_TELEMETRY_PROFILER_HH

#include <chrono>
#include <cstdint>

#include "telemetry/stat_registry.hh"

namespace mcd
{
namespace telemetry
{

/** The instrumented phases. Names double as registry paths under
 *  `prof.` — keep them dotted and lowercase. */
enum class Phase
{
    SimCommit,      //!< commit/retire stage
    SimFetch,       //!< fetch + rename + dispatch
    SimIssueInt,    //!< integer issue loop
    SimIssueFp,     //!< floating-point issue loop
    SimIssueLs,     //!< load/store issue loop
    SimWakeup,      //!< completion/wakeup processing
    SimInterval,    //!< interval boundary (controller + observer)
    CkptSave,       //!< Simulator::saveCheckpoint
    CkptRestore,    //!< Simulator::restoreCheckpoint
    DiskRead,       //!< DiskStore::get
    DiskWrite,      //!< DiskStore::put
    PoolTask,       //!< ThreadPool task execution
    COUNT,
};

constexpr int NUM_PHASES = static_cast<int>(Phase::COUNT);

/** Dotted phase name, e.g. "sim.commit". */
const char *phaseName(Phase p);

/** The one profiling switch. A plain (non-atomic) bool read on every
 *  probe: writes happen only at startup (env) or before a profiled
 *  run begins, never concurrently with probes. */
extern bool g_profiling;

inline bool
profilingEnabled()
{
    return g_profiling;
}

/** Flip profiling programmatically (the `--profile` path). Call
 *  before the work being profiled starts, not concurrently with it. */
void setProfiling(bool on);

/** The ns histogram behind `prof.<phaseName(p)>`. */
Histogram &phaseHistogram(Phase p);

/** Drop all recorded phase samples (microbenchmark hygiene). */
void resetPhaseHistograms();

/**
 * Times its scope into `phaseHistogram(phase)` when profiling is on;
 * otherwise costs one predicted branch in the constructor and one in
 * the destructor.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Phase phase)
        : phase_(phase), on_(g_profiling)
    {
        if (on_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedTimer()
    {
        if (on_) {
            auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            phaseHistogram(phase_).record(
                static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
        }
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Phase phase_;
    bool on_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace telemetry
} // namespace mcd

#endif // MCD_TELEMETRY_PROFILER_HH
