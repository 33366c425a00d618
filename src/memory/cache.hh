/**
 * @file
 * Generic set-associative, write-back, write-allocate cache with true-LRU
 * replacement. The cache is a functional tag model: it answers hit/miss
 * and reports dirty victims; timing (hit latencies, miss penalties,
 * domain clocks) lives in the core, which is what lets one cache class
 * serve L1I, L1D, and the unified L2 of Table 4.
 */

#ifndef MCD_MEMORY_CACHE_HH
#define MCD_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "common/stats.hh"

namespace mcd
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    int associativity = 2;
    int lineBytes = 64;
};

/** Result of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false;        //!< a dirty victim was evicted
    std::uint64_t victimAddr = 0;  //!< line address of the dirty victim
};

/** One level of cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return config_; }

    /**
     * Access (and on miss, allocate) the line containing `addr`.
     * @param addr   byte address
     * @param write  true for stores (marks the line dirty)
     */
    CacheAccessResult access(std::uint64_t addr, bool write);

    /** Tag check without any state change. */
    bool probe(std::uint64_t addr) const;

    /** Number of sets. */
    int numSets() const { return num_sets_; }

    /** Line-aligned address of the line containing `addr`. */
    std::uint64_t
    lineAddr(std::uint64_t addr) const
    {
        return addr & ~static_cast<std::uint64_t>(config_.lineBytes - 1);
    }

    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }
    const Counter &writebacks() const { return writebacks_; }

    double missRate() const;

    /** Serialize the valid lines' tags/LRU and the counters
     *  (checkpointing; compact varint layout). */
    void saveState(std::string &out) const;

    /** Inverse of saveState; false on a size mismatch, short data, or
     *  line indices that do not rise within the table. */
    bool loadState(serial::Reader &in);

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    CacheConfig config_;
    int num_sets_;
    int line_shift_;
    int set_bits_; //!< log2(num_sets_)
    std::vector<Line> lines_;
    std::uint64_t lru_clock_ = 0;

    Counter hits_;
    Counter misses_;
    Counter writebacks_;

    int setIndex(std::uint64_t addr) const;
    std::uint64_t tagOf(std::uint64_t addr) const;
    Line *findLine(std::uint64_t addr);
    const Line *findLine(std::uint64_t addr) const;
};

} // namespace mcd

#endif // MCD_MEMORY_CACHE_HH
