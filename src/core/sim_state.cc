#include "core/sim_state.hh"

#include <limits>

#include "common/logging.hh"

namespace mcd
{

namespace
{

std::uint64_t
nextPow2(std::uint64_t n)
{
    std::uint64_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

void
saveInst(std::string &out, const Inst &inst)
{
    serial::appendU64(out, inst.op.pc);
    serial::appendI64(out, static_cast<int>(inst.op.cls));
    serial::appendI64(out, inst.op.srcA);
    serial::appendI64(out, inst.op.srcB);
    serial::appendI64(out, inst.op.dst);
    serial::appendU64(out, inst.op.memAddr);
    serial::appendU64(out, inst.op.taken ? 1 : 0);
    serial::appendU64(out, inst.op.target);

    serial::appendU64(out, inst.seq);
    serial::appendI64(out, static_cast<int>(inst.execDomain));
    serial::appendI64(out, inst.physDst);
    serial::appendI64(out, inst.physA);
    serial::appendI64(out, inst.physB);
    serial::appendI64(out, inst.oldPhysDst);

    std::uint64_t flags = 0;
    flags |= inst.enqueued ? 1ull << 0 : 0;
    flags |= inst.issued ? 1ull << 1 : 0;
    flags |= inst.completed ? 1ull << 2 : 0;
    flags |= inst.committed ? 1ull << 3 : 0;
    flags |= inst.mispredicted ? 1ull << 4 : 0;
    flags |= inst.isLoad ? 1ull << 5 : 0;
    flags |= inst.isStore ? 1ull << 6 : 0;
    flags |= inst.addrKnown ? 1ull << 7 : 0;
    flags |= inst.dataReady ? 1ull << 8 : 0;
    flags |= inst.memIssued ? 1ull << 9 : 0;
    flags |= inst.forwarded ? 1ull << 10 : 0;
    flags |= inst.committedStore ? 1ull << 11 : 0;
    flags |= inst.writeIssued ? 1ull << 12 : 0;
    flags |= inst.lsqFreed ? 1ull << 13 : 0;
    flags |= inst.usesMshr ? 1ull << 14 : 0;
    serial::appendU64(out, flags);

    serial::appendI64(out, inst.dispatchTime);
    serial::appendI64(out, inst.completeTime);
    serial::appendU64(out, inst.doneCycle);
    serial::appendI64(out, inst.absDoneTime);
}

/** Read a micro-op; false if its class or an architectural register
 *  is out of range. */
bool
loadOp(serial::Reader &in, MicroOp &op)
{
    op.pc = in.readU64();
    std::int64_t cls = in.readI64();
    std::int64_t regs[3];
    for (std::int64_t &r : regs)
        r = in.readI64();
    op.memAddr = in.readU64();
    op.taken = in.readU64() != 0;
    op.target = in.readU64();
    if (cls < 0 || cls > static_cast<std::int64_t>(OpClass::Nop))
        return false;
    for (std::int64_t r : regs)
        if (r < NO_REG || r >= NUM_ARCH_REGS)
            return false;
    op.cls = static_cast<OpClass>(cls);
    op.srcA = static_cast<int>(regs[0]);
    op.srcB = static_cast<int>(regs[1]);
    op.dst = static_cast<int>(regs[2]);
    return true;
}

/** Read one window entry; false unless it is entry `seq`, executes in
 *  a domain with an issue queue, and names each physical register as
 *  NO_REG or an index (the register files bound it from above). */
bool
loadInst(serial::Reader &in, Inst &inst, std::uint64_t seq)
{
    if (!loadOp(in, inst.op))
        return false;

    inst.seq = in.readU64();
    std::int64_t domain = in.readI64();
    if (inst.seq != seq ||
        (domain != domainIndex(DomainId::Integer) &&
         domain != domainIndex(DomainId::FloatingPoint) &&
         domain != domainIndex(DomainId::LoadStore)))
        return false;
    inst.execDomain = static_cast<DomainId>(domain);
    for (int *phys : {&inst.physDst, &inst.physA, &inst.physB,
                      &inst.oldPhysDst}) {
        std::int64_t r = in.readI64();
        if (r < NO_REG || r > std::numeric_limits<int>::max())
            return false;
        *phys = static_cast<int>(r);
    }

    std::uint64_t flags = in.readU64();
    inst.enqueued = (flags >> 0) & 1;
    inst.issued = (flags >> 1) & 1;
    inst.completed = (flags >> 2) & 1;
    inst.committed = (flags >> 3) & 1;
    inst.mispredicted = (flags >> 4) & 1;
    inst.isLoad = (flags >> 5) & 1;
    inst.isStore = (flags >> 6) & 1;
    inst.addrKnown = (flags >> 7) & 1;
    inst.dataReady = (flags >> 8) & 1;
    inst.memIssued = (flags >> 9) & 1;
    inst.forwarded = (flags >> 10) & 1;
    inst.committedStore = (flags >> 11) & 1;
    inst.writeIssued = (flags >> 12) & 1;
    inst.lsqFreed = (flags >> 13) & 1;
    inst.usesMshr = (flags >> 14) & 1;

    inst.dispatchTime = in.readI64();
    inst.completeTime = in.readI64();
    inst.doneCycle = in.readU64();
    inst.absDoneTime = in.readI64();
    return in.ok();
}

void
saveSeqList(std::string &out, const std::vector<std::uint64_t> &list)
{
    serial::appendU64(out, list.size());
    for (std::uint64_t s : list)
        serial::appendU64(out, s);
}

/** Read a queue of sequence numbers; false unless every one names a
 *  live window entry in [head, next). */
bool
loadSeqList(serial::Reader &in, std::vector<std::uint64_t> &list,
            std::uint64_t head, std::uint64_t next)
{
    std::uint64_t n = in.readU64();
    if (!in.ok() || n > next - head)
        return false;
    list.resize(n);
    for (std::uint64_t &s : list) {
        s = in.readU64();
        if (s < head || s >= next)
            return false;
    }
    return in.ok();
}

} // namespace

SimState::SimState(int rob_size, int lsq_size)
{
    std::uint64_t capacity = nextPow2(
        static_cast<std::uint64_t>(rob_size + lsq_size) + 8);
    ring.resize(capacity);
    ringMask = capacity - 1;
    intIq.reserve(32);
    fpIq.reserve(32);
    lsq.reserve(static_cast<std::size_t>(lsq_size));
    intExec.reserve(32);
    fpExec.reserve(32);
    lsExec.reserve(32);
}

void
SimState::grow()
{
    std::uint64_t capacity = ring.size() * 2;
    std::vector<Inst> next(capacity);
    std::uint64_t mask = capacity - 1;
    for (std::uint64_t s = windowHead; s != nextSeq; ++s)
        next[s & mask] = ring[s & ringMask];
    ring = std::move(next);
    ringMask = mask;
}

void
SimState::resetIntervalAccum()
{
    ivOccupancySum.fill(0.0);
    ivCycles.fill(0);
    ivBusyCycles.fill(0);
    ivIssued.fill(0);
    robOccupancySum = 0.0;
}

void
SimState::saveState(std::string &out) const
{
    serial::appendU64(out, windowHead);
    serial::appendU64(out, nextSeq);
    serial::appendU64(out, robHead);
    for (std::uint64_t s = windowHead; s != nextSeq; ++s)
        saveInst(out, inst(s));

    saveSeqList(out, intIq);
    saveSeqList(out, fpIq);
    saveSeqList(out, lsq);
    saveSeqList(out, intExec);
    saveSeqList(out, fpExec);
    saveSeqList(out, lsExec);

    serial::appendU64(out, intDivFreeCycle);
    serial::appendU64(out, fpDivFreeCycle);
    serial::appendI64(out, mshrInUse);

    serial::appendU64(out, havePendingOp ? 1 : 0);
    serial::appendU64(out, pendingOp.pc);
    serial::appendI64(out, static_cast<int>(pendingOp.cls));
    serial::appendI64(out, pendingOp.srcA);
    serial::appendI64(out, pendingOp.srcB);
    serial::appendI64(out, pendingOp.dst);
    serial::appendU64(out, pendingOp.memAddr);
    serial::appendU64(out, pendingOp.taken ? 1 : 0);
    serial::appendU64(out, pendingOp.target);
    serial::appendU64(out, lastFetchLine);
    serial::appendI64(out, icacheStallUntil);
    serial::appendU64(out, stallBranchSeq);
    serial::appendI64(out, branchResolveTime);
    serial::appendI64(out, static_cast<int>(branchResolveDomain));
    serial::appendI64(out, redirectPenaltyLeft);

    serial::appendI64(out, now);
    serial::appendU64(out, committed);
    serial::appendU64(out, feCycles);
    serial::appendU64(out, measCommittedBase);
    serial::appendU64(out, measFeCyclesBase);
    serial::appendI64(out, measTimeBase);

    serial::appendU64(out, branches.value());
    serial::appendU64(out, mispredicts.value());
    serial::appendU64(out, loads.value());
    serial::appendU64(out, stores.value());

    serial::appendU64(out, intervalIndex);
    serial::appendU64(out, intervalStartInsts);
    serial::appendU64(out, intervalStartFeCycles);
    serial::appendI64(out, intervalStartTime);
    serial::appendDouble(out, intervalStartEnergy);
    for (double x : ivOccupancySum)
        serial::appendDouble(out, x);
    for (std::uint64_t x : ivCycles)
        serial::appendU64(out, x);
    for (std::uint64_t x : ivBusyCycles)
        serial::appendU64(out, x);
    for (std::uint64_t x : ivIssued)
        serial::appendU64(out, x);
    serial::appendDouble(out, robOccupancySum);
}

bool
SimState::loadState(serial::Reader &in)
{
    std::uint64_t window_head = in.readU64();
    std::uint64_t next_seq = in.readU64();
    std::uint64_t rob_head = in.readU64();
    if (!in.ok() || next_seq < rob_head || rob_head < window_head ||
        next_seq - window_head > in.remaining())
        return false;

    std::uint64_t span = next_seq - window_head;
    std::uint64_t capacity = ring.size();
    while (capacity < span)
        capacity *= 2;
    std::vector<Inst> new_ring(capacity);
    std::uint64_t mask = capacity - 1;
    for (std::uint64_t s = window_head; s != next_seq; ++s)
        if (!loadInst(in, new_ring[s & mask], s))
            return false;

    for (auto *list : {&intIq, &fpIq, &lsq, &intExec, &fpExec, &lsExec})
        if (!loadSeqList(in, *list, window_head, next_seq))
            return false;

    ring = std::move(new_ring);
    ringMask = mask;
    windowHead = window_head;
    nextSeq = next_seq;
    robHead = rob_head;

    intDivFreeCycle = in.readU64();
    fpDivFreeCycle = in.readU64();
    mshrInUse = static_cast<int>(in.readI64());

    havePendingOp = in.readU64() != 0;
    if (!loadOp(in, pendingOp))
        return false;
    lastFetchLine = in.readU64();
    icacheStallUntil = in.readI64();
    stallBranchSeq = in.readU64();
    branchResolveTime = in.readI64();
    std::int64_t resolve_domain = in.readI64();
    std::int64_t redirect_left = in.readI64();
    if (mshrInUse < 0 || resolve_domain < 0 ||
        resolve_domain >= NUM_DOMAINS || redirect_left < 0 ||
        redirect_left > std::numeric_limits<int>::max())
        return false;
    branchResolveDomain = static_cast<DomainId>(resolve_domain);
    redirectPenaltyLeft = static_cast<int>(redirect_left);

    now = in.readI64();
    committed = in.readU64();
    feCycles = in.readU64();
    measCommittedBase = in.readU64();
    measFeCyclesBase = in.readU64();
    measTimeBase = in.readI64();

    branches.set(in.readU64());
    mispredicts.set(in.readU64());
    loads.set(in.readU64());
    stores.set(in.readU64());

    intervalIndex = in.readU64();
    intervalStartInsts = in.readU64();
    intervalStartFeCycles = in.readU64();
    intervalStartTime = in.readI64();
    intervalStartEnergy = in.readDouble();
    for (double &x : ivOccupancySum)
        x = in.readDouble();
    for (std::uint64_t &x : ivCycles)
        x = in.readU64();
    for (std::uint64_t &x : ivBusyCycles)
        x = in.readU64();
    for (std::uint64_t &x : ivIssued)
        x = in.readU64();
    robOccupancySum = in.readDouble();

    return in.ok();
}

} // namespace mcd
