/**
 * @file
 * Physical register file and rename map. The MCD extension of [22]
 * splits SimpleScalar's RUU into separate ROB / issue queue / physical
 * register file structures; this models the last of those, including the
 * cross-domain result visibility rule: a register written at time t by
 * domain D is usable in domain C only at a C edge that satisfies the
 * synchronization window against t.
 */

#ifndef MCD_CORE_REGFILE_HH
#define MCD_CORE_REGFILE_HH

#include <array>
#include <vector>

#include "common/serial.hh"
#include "clock/clock_system.hh"
#include "common/types.hh"
#include "workload/micro_op.hh"

namespace mcd
{

/** One physical register file (integer or floating point). */
class PhysRegFile
{
  public:
    explicit PhysRegFile(int num_regs);

    /** Allocate a free register (returned pending); -1 if exhausted. */
    int
    alloc()
    {
        if (free_list_.empty())
            return -1;
        int reg = free_list_.back();
        free_list_.pop_back();
        regs_[static_cast<std::size_t>(reg)] = Entry{};
        return reg;
    }

    /** Return a register to the free list. */
    void
    free(int reg)
    {
        if (reg < 0 || reg >= size())
            badRegister(reg);
        free_list_.push_back(reg);
    }

    /** Record the result write at `time` by `producer`. */
    void
    markWritten(int reg, Tick time, DomainId producer)
    {
        Entry &e = regs_[static_cast<std::size_t>(reg)];
        e.written = true;
        e.writeTime = time;
        e.producer = producer;
    }

    /** Has the register been written at all? */
    bool
    written(int reg) const
    {
        return regs_[static_cast<std::size_t>(reg)].written;
    }

    /**
     * The earliest `consumer` edge time at which the register's value
     * is usable, given the producing domain and the synchronization
     * rule: 0 for no register (`reg < 0`), MAX_TICK while unwritten.
     */
    Tick
    readyTime(int reg, DomainId consumer, const ClockSystem &clocks) const
    {
        if (reg < 0)
            return 0; // zero register / no operand
        const Entry &e = regs_[static_cast<std::size_t>(reg)];
        if (!e.written)
            return MAX_TICK;
        return clocks.visibleAt(e.producer, e.writeTime, consumer);
    }

    /** Is the register's value usable by `consumer` at `edge`? */
    bool
    readyAt(int reg, DomainId consumer, Tick edge,
            const ClockSystem &clocks) const
    {
        return edge >= readyTime(reg, consumer, clocks);
    }

    int freeCount() const { return static_cast<int>(free_list_.size()); }
    int size() const { return static_cast<int>(regs_.size()); }

    /** Serialize entries and free-list order (checkpointing). The
     *  free list is a LIFO, so its order shapes future allocations
     *  and must round-trip exactly. */
    void saveState(std::string &out) const;

    /** Inverse of saveState; false on size mismatch, an unknown
     *  producer domain or a free-list entry outside the file. */
    bool loadState(serial::Reader &in);

  private:
    struct Entry
    {
        bool written = false;
        Tick writeTime = 0;
        DomainId producer = DomainId::Integer;
    };

    std::vector<Entry> regs_;
    std::vector<int> free_list_;

    /** Panic on freeing `reg`, which lies outside the file. */
    [[noreturn, gnu::cold]] static void badRegister(int reg);
};

/**
 * Logical-to-physical mapping over the 64-entry logical namespace
 * (0-31 integer, 32-63 FP). Logical register 0 is the hardwired zero
 * register and is never renamed.
 */
class RenameMap
{
  public:
    /** Set up identity-ish initial mappings, drawing from both files. */
    RenameMap(PhysRegFile &int_file, PhysRegFile &fp_file);

    /** Current physical register for a logical register (-1 for reg 0). */
    int
    lookup(int logical) const
    {
        return logical <= 0 ? -1
                            : map_[static_cast<std::size_t>(logical)];
    }

    /** Update the mapping; returns the previous physical register. */
    int
    rename(int logical, int phys)
    {
        if (logical <= 0)
            zeroRegister();
        int old = map_[static_cast<std::size_t>(logical)];
        map_[static_cast<std::size_t>(logical)] = phys;
        return old;
    }

    /** Which file a logical register lives in. */
    static bool isFp(int logical) { return logical >= NUM_INT_ARCH_REGS; }

    void saveState(std::string &out) const;

    /** Inverse of saveState; false (map unchanged) unless every
     *  mapping indexes its register file. */
    bool loadState(serial::Reader &in);

  private:
    std::array<int, NUM_ARCH_REGS> map_;
    int int_size_; //!< integer file size, bounding restored mappings
    int fp_size_;  //!< FP file size, bounding restored mappings

    /** Panic on renaming the hardwired zero register. */
    [[noreturn, gnu::cold]] static void zeroRegister();
};

} // namespace mcd

#endif // MCD_CORE_REGFILE_HH
