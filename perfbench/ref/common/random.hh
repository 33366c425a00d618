/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Clock jitter is sampled once per domain cycle (Section 4 of the paper:
 * normally distributed, zero mean, sigma = 110 ps), i.e. tens of millions
 * of draws per run, so the normal sampler must be cheap. We use
 * xoshiro256** for the uniform stream and a 4,096-entry inverse-CDF table
 * (linear interpolation between quantiles) for the normal distribution.
 * Everything is seeded explicitly: identical seeds reproduce identical
 * simulations bit-for-bit.
 */

#ifndef MCD_COMMON_RANDOM_HH
#define MCD_COMMON_RANDOM_HH

#include <array>
#include <cstdint>

namespace mcd
{

/**
 * xoshiro256** pseudo-random generator (Blackman & Vigna). Fast,
 * high-quality, and trivially seedable via splitmix64.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, bound) without modulo bias for small bound. */
    std::uint64_t range(std::uint64_t bound);

    /** Bernoulli draw with probability p of true. */
    bool chance(double p);

    /**
     * Standard-normal draw via a precomputed inverse-CDF table with
     * linear interpolation. Mean 0, standard deviation 1 (to within the
     * table's quantization; see tests for measured moments).
     */
    double normal();

    /** Normal draw with the given mean and standard deviation. */
    double normal(double mean, double sigma);

    /**
     * Geometric-ish burst length: number of consecutive successes with
     * continuation probability p, capped at `cap`. Used by the workload
     * generators for run lengths.
     */
    int burstLength(double p, int cap);

    /** Raw generator state (checkpointing). Every draw is a pure
     *  function of this state, so save/restore reproduces the stream
     *  bit-for-bit. */
    const std::array<std::uint64_t, 4> &state() const { return state_; }
    void setState(const std::array<std::uint64_t, 4> &s) { state_ = s; }

  private:
    std::array<std::uint64_t, 4> state_;
};

} // namespace mcd

#endif // MCD_COMMON_RANDOM_HH
