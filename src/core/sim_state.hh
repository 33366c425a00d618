/**
 * @file
 * The simulator's complete mutable state, factored out of the Simulator
 * class into one explicit, serializable aggregate.
 *
 * Layout is chosen for the hot loop: the program-order window is a flat
 * power-of-two ring of Inst records indexed by `seq & ringMask`, so the
 * ROB is just the half-open sequence range [robHead, nextSeq) and every
 * queue (issue queues, LSQ, execution lists) holds sequence numbers
 * instead of pointers. That removes the deque node-chasing of the old
 * representation, makes entry lookup a mask-and-index, and — because
 * sequence numbers survive serialization while pointers do not — is what
 * lets a whole machine state round-trip through a checkpoint byte-
 * identically (see Simulator::saveCheckpoint).
 *
 * Interval accumulators are kept structure-of-arrays (one array per
 * field across the controlled domains), matching the access pattern of
 * tickDomain, which touches exactly one field set per domain edge.
 */

#ifndef MCD_CORE_SIM_STATE_HH
#define MCD_CORE_SIM_STATE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/serial.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/inst.hh"
#include "core/interval.hh"
#include "workload/micro_op.hh"

namespace mcd
{

/** Sentinel sequence number ("no instruction"). */
constexpr std::uint64_t NO_SEQ = ~0ull;

/** All mutable machine state of one simulated core. */
struct SimState
{
    /**
     * @param rob_size  ROB capacity (sizes the initial ring)
     * @param lsq_size  LSQ capacity (ditto)
     */
    SimState(int rob_size, int lsq_size);

    // --- program-order window (ring) ---
    std::vector<Inst> ring;        //!< power-of-two ring of live insts
    std::uint64_t ringMask = 0;
    std::uint64_t windowHead = 0;  //!< oldest not-yet-retired seq
    std::uint64_t nextSeq = 0;     //!< next seq to dispatch
    std::uint64_t robHead = 0;     //!< oldest uncommitted seq

    // --- scheduling queues (ordered oldest-first, by seq) ---
    std::vector<std::uint64_t> intIq;
    std::vector<std::uint64_t> fpIq;
    std::vector<std::uint64_t> lsq;

    // --- in-execution lists (unordered; swap-remove) ---
    std::vector<std::uint64_t> intExec;
    std::vector<std::uint64_t> fpExec;
    std::vector<std::uint64_t> lsExec;

    // Non-pipelined unit occupancy (divide/sqrt): the owning domain's
    // clock.cycles() value from which the unit accepts a new op.
    std::uint64_t intDivFreeCycle = 0;
    std::uint64_t fpDivFreeCycle = 0;

    int mshrInUse = 0;

    // --- fetch state ---
    bool havePendingOp = false;
    MicroOp pendingOp{};
    std::uint64_t lastFetchLine = ~0ull;
    Tick icacheStallUntil = 0;
    std::uint64_t stallBranchSeq = NO_SEQ; //!< mispredicted branch waited on
    Tick branchResolveTime = MAX_TICK;
    DomainId branchResolveDomain = DomainId::Integer;
    int redirectPenaltyLeft = 0;

    // --- global progress ---
    Tick now = 0;
    std::uint64_t committed = 0;
    std::uint64_t feCycles = 0;

    // --- measurement window bases (exclude warm-up once reset) ---
    std::uint64_t measCommittedBase = 0;
    std::uint64_t measFeCyclesBase = 0;
    Tick measTimeBase = 0;

    // --- event counters ---
    Counter branches;
    Counter mispredicts;
    Counter loads;
    Counter stores;

    // --- interval machinery (structure-of-arrays accumulators) ---
    std::uint64_t intervalIndex = 0;
    std::uint64_t intervalStartInsts = 0;
    std::uint64_t intervalStartFeCycles = 0;
    Tick intervalStartTime = 0;
    NanoJoule intervalStartEnergy = 0.0;
    std::array<double, NUM_CONTROLLED> ivOccupancySum{};
    std::array<std::uint64_t, NUM_CONTROLLED> ivCycles{};
    std::array<std::uint64_t, NUM_CONTROLLED> ivBusyCycles{};
    std::array<std::uint64_t, NUM_CONTROLLED> ivIssued{};
    double robOccupancySum = 0.0; //!< per-FE-cycle, interval-local

    // --- accessors ---
    Inst &inst(std::uint64_t seq) { return ring[seq & ringMask]; }
    const Inst &
    inst(std::uint64_t seq) const
    {
        return ring[seq & ringMask];
    }

    /** Uncommitted (ROB-resident) instruction count. */
    int robCount() const { return static_cast<int>(nextSeq - robHead); }

    /** Live (dispatched, not yet retired) window span. */
    std::uint64_t liveSpan() const { return nextSeq - windowHead; }

    /**
     * Claim the ring slot for the next sequence number, growing the
     * ring if the live span has caught up with its capacity (possible
     * when slow-draining committed stores pin the window head). The
     * returned entry is reset with its seq assigned. Invalidates
     * references into the ring when growth occurs.
     */
    Inst &
    allocate()
    {
        if (liveSpan() >= ring.size())
            grow();
        Inst &slot = ring[nextSeq & ringMask];
        slot = Inst{};
        slot.seq = nextSeq++;
        return slot;
    }

    /** Advance the window head past retired entries. */
    void
    retireHead()
    {
        while (windowHead != nextSeq && inst(windowHead).retired())
            ++windowHead;
    }

    /** Clear interval accumulators (boundary / measurement reset). */
    void resetIntervalAccum();

    /** Serialize everything, live window entries included. */
    void saveState(std::string &out) const;

    /** Inverse of saveState; false on malformed or oversized data. */
    bool loadState(serial::Reader &in);

  private:
    /** Double the ring, keeping every live entry at its seq. */
    void grow();
};

} // namespace mcd

#endif // MCD_CORE_SIM_STATE_HH
