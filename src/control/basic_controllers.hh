/**
 * @file
 * Simple controllers: constant per-domain frequencies (the baseline MCD
 * machine and the global-DVFS comparison points) and the profiling
 * recorder / schedule replayer that together implement the off-line
 * Dynamic-X% comparator of [22] (see DESIGN.md, substitution 2).
 */

#ifndef MCD_CONTROL_BASIC_CONTROLLERS_HH
#define MCD_CONTROL_BASIC_CONTROLLERS_HH

#include <array>
#include <vector>

#include "core/interval.hh"

namespace mcd
{

struct CoreConfig;

/** Per-interval, per-controlled-domain frequency assignment. */
using FrequencyVector = std::array<Hertz, NUM_CONTROLLED>;

/**
 * Holds all controllable domains at fixed frequencies. With all domains
 * at maximum this is the baseline MCD processor.
 */
class ConstantController : public FrequencyController
{
  public:
    explicit ConstantController(const FrequencyVector &freqs);

    /** Convenience: every domain at the same frequency. */
    explicit ConstantController(Hertz freq);

    void onStart(ClockSystem &clocks) override;
    void onInterval(const IntervalStats &stats,
                    ClockSystem &clocks) override;

  private:
    FrequencyVector freqs_;
};

/** What the off-line pass records about one interval. */
struct IntervalProfile
{
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    std::array<double, NUM_CONTROLLED> busyFraction{};
    std::array<double, NUM_CONTROLLED> queueUtilization{};
    std::array<double, NUM_CONTROLLED> avgOccupancy{};
    std::array<std::uint64_t, NUM_CONTROLLED> issued{};
    std::array<std::uint64_t, NUM_CONTROLLED> cycles{};
};

/**
 * Profiling pass of the off-line algorithm: domains stay at maximum
 * frequency while per-interval activity is recorded.
 */
class ProfilingController : public FrequencyController
{
  public:
    ProfilingController() = default;

    void onStart(ClockSystem &clocks) override;
    void onInterval(const IntervalStats &stats,
                    ClockSystem &clocks) override;

    const std::vector<IntervalProfile> &profile() const
    {
        return profile_;
    }

  private:
    std::vector<IntervalProfile> profile_;
};

/**
 * Replay pass of the off-line algorithm: applies a precomputed
 * per-interval frequency schedule. Changes are applied instantaneously
 * (Section 5: the off-line algorithm requests changes ahead of need, so
 * the slew rate is not a source of error for it). Past the end of the
 * schedule the last entry is held.
 */
class ScheduleController : public FrequencyController
{
  public:
    explicit ScheduleController(std::vector<FrequencyVector> schedule);

    void onStart(ClockSystem &clocks) override;
    void onInterval(const IntervalStats &stats,
                    ClockSystem &clocks) override;

    const std::vector<FrequencyVector> &schedule() const
    {
        return schedule_;
    }

  private:
    std::vector<FrequencyVector> schedule_;
    std::size_t next_ = 0;

    void apply(ClockSystem &clocks, const FrequencyVector &freqs);
};

/**
 * Derive a per-interval schedule from a profile of a run of the
 * machine `core`. Per domain and interval the demand estimate is
 *
 *   demand = max(issued / (issueWidth * cycles),  avgOccupancy / qsize)
 *
 * with the domain's issue width and input-queue size taken from
 * `core`, i.e. a domain needs frequency in proportion to how much of
 * its issue bandwidth it used, but a domain whose input queue is under
 * pressure (occupancy high — e.g. the load/store domain of a
 * memory-bound program) must stay fast regardless. Each domain then
 * runs at f_max * min(1, demand + margin); the per-domain margins are
 * the aggressiveness knobs the off-line search tunes against the
 * performance-degradation cap (Dynamic-1% / Dynamic-5%), refining each
 * domain independently (a cheap stand-in for the per-interval slack
 * distribution of the original shaker algorithm).
 */
std::vector<FrequencyVector>
deriveSchedule(const std::vector<IntervalProfile> &profile,
               const DvfsModel &dvfs,
               const std::array<double, NUM_CONTROLLED> &margins,
               const CoreConfig &core);

} // namespace mcd

#endif // MCD_CONTROL_BASIC_CONTROLLERS_HH
