/**
 * @file
 * The event counter the cache, the predictor and the simulator count
 * with; the harness layer turns the counts into the paper's derived
 * metrics.
 */

#ifndef MCD_COMMON_STATS_HH
#define MCD_COMMON_STATS_HH

#include <cstdint>

namespace mcd
{

/** Monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }
    /** Restore a saved value (checkpointing). */
    void set(std::uint64_t v) { value_ = v; }

  private:
    std::uint64_t value_ = 0;
};

} // namespace mcd

#endif // MCD_COMMON_STATS_HH
