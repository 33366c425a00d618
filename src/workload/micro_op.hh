/**
 * @file
 * The dynamic micro-op IR executed by the simulator.
 *
 * The paper runs Alpha binaries under SimpleScalar; we substitute a
 * micro-op stream that carries exactly the information the timing model
 * consumes: operation class, logical register dependences, memory
 * address, and resolved control flow. Logical registers 0-31 are
 * integer (0 is the always-ready zero register), 32-63 floating point.
 */

#ifndef MCD_WORKLOAD_MICRO_OP_HH
#define MCD_WORKLOAD_MICRO_OP_HH

#include <cstdint>

namespace mcd
{

/** Operation classes with distinct scheduling/latency behavior. The
 *  predicates below rely on each group being contiguous. */
enum class OpClass : std::uint8_t
{
    IntAlu = 0,
    IntMult,
    IntDiv,
    FpAdd,
    FpMult,
    FpDiv,
    FpSqrt,
    Load,
    FpLoad,
    Store,
    FpStore,
    Branch,
    Call,
    Return,
    Nop,
};

/** True for classes executed by the floating-point domain. */
inline bool
isFpClass(OpClass cls)
{
    return cls >= OpClass::FpAdd && cls <= OpClass::FpSqrt;
}

/** True for loads and stores (handled by the load/store domain). */
inline bool
isMemClass(OpClass cls)
{
    return cls >= OpClass::Load && cls <= OpClass::FpStore;
}

/** True for any control transfer. */
inline bool
isControlClass(OpClass cls)
{
    return cls >= OpClass::Branch && cls <= OpClass::Return;
}

/** True for loads (int or fp destination). */
inline bool
isLoadClass(OpClass cls)
{
    return cls == OpClass::Load || cls == OpClass::FpLoad;
}

/** True for stores (int or fp data). */
inline bool
isStoreClass(OpClass cls)
{
    return cls == OpClass::Store || cls == OpClass::FpStore;
}

/** Number of architectural integer registers (reg 0 is the zero reg). */
constexpr int NUM_INT_ARCH_REGS = 32;

/** Number of architectural FP registers (logical ids 32..63). */
constexpr int NUM_FP_ARCH_REGS = 32;

/** Total logical register namespace. */
constexpr int NUM_ARCH_REGS = NUM_INT_ARCH_REGS + NUM_FP_ARCH_REGS;

/** Sentinel for "no register operand". */
constexpr int NO_REG = -1;

/** One dynamic instruction on the correct execution path. */
struct MicroOp
{
    std::uint64_t pc = 0;     //!< instruction address (4-byte ops)
    OpClass cls = OpClass::Nop;
    int srcA = NO_REG;        //!< first source logical register
    int srcB = NO_REG;        //!< second source logical register
    int dst = NO_REG;         //!< destination logical register
    std::uint64_t memAddr = 0; //!< effective address for loads/stores
    bool taken = false;       //!< resolved direction for control ops
    std::uint64_t target = 0; //!< resolved target for taken control ops

    /** Address of the next sequential instruction. */
    std::uint64_t fallthrough() const { return pc + 4; }

    /** Address of the next instruction on the correct path. */
    std::uint64_t
    nextPc() const
    {
        return (isControlClass(cls) && taken) ? target : fallthrough();
    }
};

} // namespace mcd

#endif // MCD_WORKLOAD_MICRO_OP_HH
