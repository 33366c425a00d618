/**
 * @file
 * The in-flight dynamic instruction record. Instructions live in the
 * simulator's program-order window — a flat power-of-two ring indexed by
 * `seq & mask` (see SimState) — and the issue queues, LSQ, and execution
 * lists reference them by sequence number, which both avoids pointer
 * chasing in the hot loop and lets whole machine states serialize for
 * checkpointing.
 */

#ifndef MCD_CORE_INST_HH
#define MCD_CORE_INST_HH

#include <cstdint>

#include "common/types.hh"
#include "workload/micro_op.hh"

namespace mcd
{

/** One in-flight instruction. */
struct Inst
{
    MicroOp op;
    std::uint64_t seq = 0;      //!< global program-order sequence number
    DomainId execDomain = DomainId::Integer;

    // Rename state.
    int physDst = -1;
    int physA = -1;
    int physB = -1;
    int oldPhysDst = -1;        //!< previous mapping, freed at commit

    // Pipeline status.
    bool enqueued = false;  //!< latched into the consumer-domain queue
    bool issued = false;
    bool completed = false;
    bool committed = false;
    Tick dispatchTime = 0;      //!< front-end edge of dispatch
    Tick completeTime = 0;      //!< edge the result became available
    /** Execution ends at the first edge of the executing domain whose
     *  clock.cycles() reaches this (issue cycle + latency)... */
    std::uint64_t doneCycle = 0;
    /** ...and whose time reaches this (memory returns; 0 = no gate). */
    Tick absDoneTime = 0;

    // Control flow.
    bool mispredicted = false;  //!< fetch-time prediction was wrong

    // Memory state.
    bool isLoad = false;
    bool isStore = false;
    bool addrKnown = false;     //!< AGU has produced the address
    bool dataReady = false;     //!< store data operand is available
    bool memIssued = false;     //!< sent to cache / forwarded
    bool forwarded = false;     //!< satisfied by store-to-load forwarding
    bool committedStore = false; //!< retired store awaiting cache write
    bool writeIssued = false;   //!< store write sent to cache
    bool lsqFreed = false;      //!< LSQ slot released
    bool usesMshr = false;

    /** True once nothing in the machine references this entry. */
    bool
    retired() const
    {
        if (!committed)
            return false;
        if (isStore)
            return lsqFreed;
        return true;
    }

    bool hasDst() const { return op.dst > 0; }
    bool dstIsFp() const { return op.dst >= NUM_INT_ARCH_REGS; }
};

} // namespace mcd

#endif // MCD_CORE_INST_HH
