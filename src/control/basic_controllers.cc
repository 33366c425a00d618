#include "control/basic_controllers.hh"

#include <algorithm>

#include "core/core_config.hh"

namespace mcd
{

ConstantController::ConstantController(const FrequencyVector &freqs)
    : freqs_(freqs)
{
}

ConstantController::ConstantController(Hertz freq)
{
    freqs_.fill(freq);
}

void
ConstantController::onStart(ClockSystem &clocks)
{
    for (int slot = 0; slot < NUM_CONTROLLED; ++slot) {
        clocks.clock(controlledDomainId(slot)).setFrequencyImmediate(
            freqs_[static_cast<std::size_t>(slot)]);
    }
}

void
ConstantController::onInterval(const IntervalStats &stats,
                               ClockSystem &clocks)
{
    (void)stats;
    (void)clocks;
}

void
ProfilingController::onStart(ClockSystem &clocks)
{
    Hertz f_max = clocks.dvfs().config().freqMax;
    for (int slot = 0; slot < NUM_CONTROLLED; ++slot)
        clocks.clock(controlledDomainId(slot)).setFrequencyImmediate(
            f_max);
}

void
ProfilingController::onInterval(const IntervalStats &stats,
                                ClockSystem &clocks)
{
    (void)clocks;
    IntervalProfile p;
    p.instructions = stats.instructions;
    p.ipc = stats.ipc;
    for (int slot = 0; slot < NUM_CONTROLLED; ++slot) {
        const DomainIntervalStats &d =
            stats.domains[static_cast<std::size_t>(slot)];
        p.busyFraction[static_cast<std::size_t>(slot)] = d.cycles
            ? static_cast<double>(d.busyCycles) /
              static_cast<double>(d.cycles)
            : 0.0;
        p.queueUtilization[static_cast<std::size_t>(slot)] =
            d.queueUtilization;
        p.avgOccupancy[static_cast<std::size_t>(slot)] = d.avgOccupancy;
        p.issued[static_cast<std::size_t>(slot)] = d.issued;
        p.cycles[static_cast<std::size_t>(slot)] = d.cycles;
    }
    profile_.push_back(p);
}

ScheduleController::ScheduleController(
    std::vector<FrequencyVector> schedule)
    : schedule_(std::move(schedule))
{
}

void
ScheduleController::apply(ClockSystem &clocks,
                          const FrequencyVector &freqs)
{
    for (int slot = 0; slot < NUM_CONTROLLED; ++slot) {
        clocks.clock(controlledDomainId(slot)).setFrequencyImmediate(
            freqs[static_cast<std::size_t>(slot)]);
    }
}

void
ScheduleController::onStart(ClockSystem &clocks)
{
    if (!schedule_.empty()) {
        apply(clocks, schedule_.front());
        next_ = 1;
    }
}

void
ScheduleController::onInterval(const IntervalStats &stats,
                               ClockSystem &clocks)
{
    (void)stats;
    if (schedule_.empty())
        return;
    std::size_t index = std::min(next_, schedule_.size() - 1);
    apply(clocks, schedule_[index]);
    ++next_;
}

std::vector<FrequencyVector>
deriveSchedule(const std::vector<IntervalProfile> &profile,
               const DvfsModel &dvfs,
               const std::array<double, NUM_CONTROLLED> &margins,
               const CoreConfig &core)
{
    const double issue_width[NUM_CONTROLLED] = {
        static_cast<double>(core.intIssueWidth),
        static_cast<double>(core.fpIssueWidth),
        static_cast<double>(core.memIssueWidth)};
    const double queue_size[NUM_CONTROLLED] = {
        static_cast<double>(core.intIqSize),
        static_cast<double>(core.fpIqSize),
        static_cast<double>(core.lsqSize)};
    Hertz f_max = dvfs.config().freqMax;
    Hertz f_min = dvfs.config().freqMin;
    std::vector<FrequencyVector> schedule;
    schedule.reserve(profile.size());
    for (const IntervalProfile &p : profile) {
        FrequencyVector freqs;
        // A full queue only demands speed if instructions are actually
        // flowing: on a memory-bound interval (low IPC) the queues are
        // full of *stalled* ops, and the off-line algorithm of [22]
        // exploits exactly that slack (its mcf anomaly). Scale the
        // pressure term by the interval's IPC, capped at 1.
        double flow = std::clamp(p.ipc, 0.0, 1.0);
        for (int slot = 0; slot < NUM_CONTROLLED; ++slot) {
            auto s = static_cast<std::size_t>(slot);
            double cycles = static_cast<double>(p.cycles[s]);
            double bandwidth = cycles > 0.0
                ? static_cast<double>(p.issued[s]) /
                  (issue_width[s] * cycles)
                : 0.0;
            double pressure =
                p.avgOccupancy[s] / queue_size[s] * flow;
            double demand = std::max(bandwidth, pressure);
            double scale = std::min(1.0, demand + margins[s]);
            freqs[s] = std::clamp(f_max * scale, f_min, f_max);
        }
        schedule.push_back(freqs);
    }
    return schedule;
}

} // namespace mcd
