#include "memory/memory_hierarchy.hh"

#include <algorithm>

namespace mcd
{

MainMemory::MainMemory(const MainMemoryConfig &config)
    : config_(config)
{
}

Tick
MainMemory::schedule(Tick now)
{
    Tick start = std::max(now, busy_until_);
    queueing_ += start - now;
    busy_until_ = start + config_.channelOccupancy;
    ++transfers_;
    return start + config_.accessLatency;
}

void
MainMemory::saveState(std::string &out) const
{
    serial::appendI64(out, busy_until_);
    serial::appendU64(out, transfers_);
    serial::appendI64(out, queueing_);
}

bool
MainMemory::loadState(serial::Reader &in)
{
    busy_until_ = in.readI64();
    transfers_ = in.readU64();
    queueing_ = in.readI64();
    return in.ok();
}

void
MemoryHierarchy::saveState(std::string &out) const
{
    l1i_.saveState(out);
    l1d_.saveState(out);
    l2_.saveState(out);
    memory_.saveState(out);
}

bool
MemoryHierarchy::loadState(serial::Reader &in)
{
    return l1i_.loadState(in) && l1d_.loadState(in) &&
           l2_.loadState(in) && memory_.loadState(in);
}

MemoryHierarchy::MemoryHierarchy(const MemoryHierarchyConfig &config)
    : config_(config), l1i_(config.l1i), l1d_(config.l1d), l2_(config.l2),
      memory_(config.memory)
{
}

void
MemoryHierarchy::refill(std::uint64_t addr, bool write,
                        MemAccessOutcome &outcome)
{
    CacheAccessResult l2_result = l2_.access(addr, write);
    ++outcome.l2Accesses;
    if (l2_result.hit) {
        outcome.level = MemLevel::L2;
    } else {
        outcome.level = MemLevel::Memory;
        ++outcome.memAccesses;
        if (l2_result.writeback)
            ++outcome.memAccesses; // dirty L2 victim goes to memory
    }
}

MemAccessOutcome
MemoryHierarchy::accessData(std::uint64_t addr, bool write)
{
    MemAccessOutcome outcome;
    CacheAccessResult l1_result = l1d_.access(addr, write);
    if (l1_result.hit)
        return outcome;

    if (l1_result.writeback) {
        // Dirty L1 victim is installed in L2 (write-back hierarchy).
        CacheAccessResult wb = l2_.access(l1_result.victimAddr, true);
        ++outcome.l2Accesses;
        if (!wb.hit && wb.writeback)
            ++outcome.memAccesses;
    }

    refill(addr, false, outcome);
    if (outcome.level == MemLevel::L1)
        outcome.level = MemLevel::L2;
    return outcome;
}

MemAccessOutcome
MemoryHierarchy::accessInst(std::uint64_t addr)
{
    MemAccessOutcome outcome;
    CacheAccessResult l1_result = l1i_.access(addr, false);
    if (l1_result.hit)
        return outcome;
    // L1I is read-only in practice; no dirty victims expected.
    refill(addr, false, outcome);
    if (outcome.level == MemLevel::L1)
        outcome.level = MemLevel::L2;
    return outcome;
}

} // namespace mcd
