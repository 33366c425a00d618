/**
 * @file
 * Fundamental simulation types shared by every MCD-DVFS module.
 *
 * Time is kept in integer picoseconds so that clock-edge arithmetic with
 * sub-period jitter (sigma = 110 ps) and the 300 ps synchronization window
 * is exact. At 1 GHz a cycle is 1,000 ticks; a 64-bit tick counter covers
 * more than 100 days of simulated time.
 */

#ifndef MCD_COMMON_TYPES_HH
#define MCD_COMMON_TYPES_HH

#include <cstdint>
#include <limits>
#include <string>

namespace mcd
{

/** Simulated time in picoseconds. */
using Tick = std::int64_t;

/** One nanosecond in ticks. */
constexpr Tick TICKS_PER_NS = 1000;

/** One microsecond in ticks. */
constexpr Tick TICKS_PER_US = 1000 * TICKS_PER_NS;

/** Sentinel for "no event scheduled / never". */
constexpr Tick MAX_TICK = std::numeric_limits<Tick>::max();

/** Frequency in hertz. Stored as double; quantization is explicit. */
using Hertz = double;

/** Supply voltage in volts. */
using Volt = double;

/** Energy in nanojoules. */
using NanoJoule = double;

/** Convert a frequency to its clock period in ticks (picoseconds). */
constexpr Tick
periodFromFreq(Hertz freq_hz)
{
    return static_cast<Tick>(1e12 / freq_hz + 0.5);
}

/** Convert a clock period in ticks to frequency in hertz. */
constexpr Hertz
freqFromPeriod(Tick period_ps)
{
    return 1e12 / static_cast<double>(period_ps);
}

/**
 * Identifier of a clock domain in the four-domain MCD processor of
 * Semeraro et al. (Figure 1). External covers main memory, which is
 * independently clocked but not controllable.
 */
enum class DomainId : std::uint8_t
{
    FrontEnd = 0,       //!< fetch, L1I, branch prediction, rename, ROB
    Integer = 1,        //!< integer issue queue, ALUs, register file
    FloatingPoint = 2,  //!< FP issue queue, ALUs, register file
    LoadStore = 3,      //!< LSQ, L1D, unified L2
    External = 4,       //!< main memory; fixed frequency/voltage
};

/** Number of on-chip, controllable-clock domains. */
constexpr int NUM_CLOCKED_DOMAINS = 4;

/** Number of domains including the external (main memory) domain. */
constexpr int NUM_DOMAINS = 5;

/** The domains whose frequency the controller may change. */
constexpr DomainId CONTROLLABLE_DOMAINS[] = {
    DomainId::Integer, DomainId::FloatingPoint, DomainId::LoadStore
};

/** Human-readable domain name. */
const char *domainName(DomainId id);

/** Iteration helper: numeric index of a domain. */
constexpr int
domainIndex(DomainId id)
{
    return static_cast<int>(id);
}

} // namespace mcd

#endif // MCD_COMMON_TYPES_HH
