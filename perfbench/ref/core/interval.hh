/**
 * @file
 * The per-interval statistics the controller hardware of Section 3.2
 * would observe, and the controller interface. The simulator samples
 * every `intervalInstructions` committed instructions (10,000 in the
 * paper). Queue utilization follows Figure 3(a)'s definition: occupancy
 * is accumulated every domain cycle and divided by the interval's
 * instruction count, so it can exceed the queue size when an interval
 * takes more cycles than instructions.
 */

#ifndef MCD_CORE_INTERVAL_HH
#define MCD_CORE_INTERVAL_HH

#include <array>
#include <cstdint>

#include "clock/clock_system.hh"
#include "common/types.hh"

namespace mcd
{

/** Index of a controllable domain within interval arrays. */
enum ControlledDomain : int
{
    CTL_INT = 0,
    CTL_FP = 1,
    CTL_LS = 2,
    NUM_CONTROLLED = 3,
};

/** Map a controllable-domain slot to its DomainId. */
DomainId controlledDomainId(int slot);

/** One domain's view of an interval. */
struct DomainIntervalStats
{
    /** Sum over domain cycles of queue occupancy / interval instrs. */
    double queueUtilization = 0.0;
    /** Occupancy averaged over domain cycles instead. */
    double avgOccupancy = 0.0;
    /** Ops issued in this domain during the interval. */
    std::uint64_t issued = 0;
    /** Domain clock cycles in the interval. */
    std::uint64_t cycles = 0;
    /** Cycles with at least one op in queue or in execution. */
    std::uint64_t busyCycles = 0;
    /** Target frequency at the end of the interval. */
    Hertz frequency = 0.0;
};

/** Everything sampled at an interval boundary. */
struct IntervalStats
{
    std::uint64_t index = 0;         //!< interval number, from 0
    std::uint64_t instructions = 0;  //!< committed instrs in interval
    std::uint64_t feCycles = 0;      //!< front-end cycles in interval
    double ipc = 0.0;                //!< instructions / feCycles
    Tick startTime = 0;
    Tick endTime = 0;
    /** On-chip energy (nJ) spent during this interval. The paper's
     *  controller hardware would not see this; it exists for the
     *  telemetry traces of the controller stress lab (src/eval/). */
    NanoJoule chipEnergy = 0.0;
    std::array<DomainIntervalStats, NUM_CONTROLLED> domains{};

    /** ROB occupancy accumulated per front-end cycle / instructions
     *  (the front end's "queue utilization" for the Section 7
     *  front-end-scaling extension). */
    double robUtilization = 0.0;
    /** ROB occupancy averaged over front-end cycles. */
    double avgRobOccupancy = 0.0;
    /** Front-end target frequency at the end of the interval. */
    Hertz feFrequency = 0.0;
};

/**
 * Frequency controller interface. Implementations inspect the interval
 * sample and adjust domain target frequencies through the clock system.
 * The front end is never adjusted (the paper fixes it at 1 GHz).
 */
class FrequencyController
{
  public:
    virtual ~FrequencyController() = default;

    /** Called once before simulation begins. */
    virtual void onStart(ClockSystem &clocks) { (void)clocks; }

    /** Called at every interval boundary. */
    virtual void onInterval(const IntervalStats &stats,
                            ClockSystem &clocks) = 0;
};

} // namespace mcd

#endif // MCD_CORE_INTERVAL_HH
