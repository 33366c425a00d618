/**
 * @file
 * Structural parameters of the simulated Alpha-21264-like MCD processor.
 * Defaults are Table 4 of the paper. Latencies are in cycles of the
 * owning domain's clock; the issue width of 6 is split 4 integer + 2
 * floating point as in the 21264, with 2 load/store ports.
 */

#ifndef MCD_CORE_CORE_CONFIG_HH
#define MCD_CORE_CORE_CONFIG_HH

#include "memory/memory_hierarchy.hh"

namespace mcd
{

/** Core structural configuration (Table 4). */
struct CoreConfig
{
    int decodeWidth = 4;      //!< fetch/rename/dispatch width
    int intIssueWidth = 4;    //!< integer ops issued per integer cycle
    int fpIssueWidth = 2;     //!< FP ops issued per FP cycle
    int memIssueWidth = 2;    //!< LSQ operations per load/store cycle
    int retireWidth = 11;

    int robSize = 80;
    int intIqSize = 20;
    int fpIqSize = 15;
    int lsqSize = 64;
    int intPhysRegs = 72;
    int fpPhysRegs = 72;

    int branchMispredictPenalty = 7; //!< front-end cycles after redirect

    int intAluCount = 4;      //!< plus 1 mult/div unit
    int fpAluCount = 2;       //!< plus 1 mult/div/sqrt unit

    int intAluLatency = 1;
    int intMultLatency = 3;
    int intDivLatency = 20;   //!< occupies the integer mult unit
    int fpAddLatency = 2;
    int fpMultLatency = 4;
    int fpDivLatency = 12;    //!< occupies the FP mult unit
    int fpSqrtLatency = 18;   //!< occupies the FP mult unit

    int mshrCount = 8;        //!< outstanding misses past L1

    MemoryHierarchyConfig memory{};

    /** Controller sampling interval in committed instructions. */
    int intervalInstructions = 10000;
};

} // namespace mcd

#endif // MCD_CORE_CORE_CONFIG_HH
