/**
 * @file
 * The Table 4 memory system: split 64 KB 2-way L1 caches, a unified 1 MB
 * direct-mapped L2 (all inside the MCD chip), and main memory on its own
 * uncontrolled clock. MainMemory models a fixed access latency plus a
 * simple channel-occupancy queue, since the paper's gcc/mcf analyses hinge
 * on the load/store-to-main-memory interface becoming saturated.
 */

#ifndef MCD_MEMORY_MEMORY_HIERARCHY_HH
#define MCD_MEMORY_MEMORY_HIERARCHY_HH

#include <cstdint>

#include "common/types.hh"
#include "memory/cache.hh"

namespace mcd
{

/** How deep an access had to travel. */
enum class MemLevel : std::uint8_t
{
    L1 = 0,
    L2 = 1,
    Memory = 2,
};

/** Outcome of a hierarchy access, for timing and energy accounting. */
struct MemAccessOutcome
{
    MemLevel level = MemLevel::L1;
    int l2Accesses = 0;   //!< L2 array uses (fills + writebacks included)
    int memAccesses = 0;  //!< main-memory line transfers
};

/** Main-memory timing parameters (externally clocked, fixed voltage). */
struct MainMemoryConfig
{
    Tick accessLatency = 80 * TICKS_PER_NS; //!< load-use latency
    Tick channelOccupancy = 10 * TICKS_PER_NS; //!< per-transfer bus hold
};

/** Fixed-latency main memory with a single busy channel. */
class MainMemory
{
  public:
    explicit MainMemory(const MainMemoryConfig &config = MainMemoryConfig{});

    /**
     * Schedule a line transfer issued at `now`; returns completion time.
     * Transfers serialize on the channel.
     */
    Tick schedule(Tick now);

    const MainMemoryConfig &config() const { return config_; }
    std::uint64_t transfers() const { return transfers_; }
    /** Total time requests waited behind the busy channel. */
    Tick queueingTime() const { return queueing_; }

    /** Serialize channel occupancy and counters (checkpointing). */
    void saveState(std::string &out) const;

    /** Inverse of saveState; false on short data. */
    bool loadState(serial::Reader &in);

  private:
    MainMemoryConfig config_;
    Tick busy_until_ = 0;
    std::uint64_t transfers_ = 0;
    Tick queueing_ = 0;
};

/** Geometry of the whole hierarchy; defaults are Table 4. */
struct MemoryHierarchyConfig
{
    CacheConfig l1i{"l1i", 64 * 1024, 2, 64};
    CacheConfig l1d{"l1d", 64 * 1024, 2, 64};
    CacheConfig l2{"l2", 1024 * 1024, 1, 64};
    MainMemoryConfig memory{};
    int l1Latency = 2;   //!< cycles, in the accessing domain's clock
    int l2Latency = 12;  //!< cycles, load/store domain clock
};

/**
 * Functional composition of the cache levels. The caller converts the
 * returned MemAccessOutcome into cycles (using domain clocks) and energy
 * charges.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(
        const MemoryHierarchyConfig &config = MemoryHierarchyConfig{});

    /** Data-side access (loads and committed stores). */
    MemAccessOutcome accessData(std::uint64_t addr, bool write);

    /** Instruction fetch access. */
    MemAccessOutcome accessInst(std::uint64_t addr);

    const MemoryHierarchyConfig &config() const { return config_; }
    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    MainMemory &memory() { return memory_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const MainMemory &memory() const { return memory_; }

    /** Serialize all cache levels + main memory (checkpointing). */
    void saveState(std::string &out) const;

    /** Inverse of saveState; false on geometry mismatch. */
    bool loadState(serial::Reader &in);

  private:
    MemoryHierarchyConfig config_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    MainMemory memory_;

    /** Handle an L1 miss (or writeback) against L2 and memory. */
    void refill(std::uint64_t addr, bool write, MemAccessOutcome &outcome);
};

} // namespace mcd

#endif // MCD_MEMORY_MEMORY_HIERARCHY_HH
