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
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /**
     * Uniform integer in [0, bound); 0 for bound 0. A plain
     * `next() % bound`: values below 2^64 mod bound come up once more
     * often than the rest, a bias below bound / 2^64. Every workload
     * stream depends on this exact mapping.
     */
    std::uint64_t
    range(std::uint64_t bound)
    {
        return bound == 0 ? 0 : next() % bound;
    }

    /** Bernoulli draw with probability p of true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Standard-normal draw via a precomputed inverse-CDF table with
     * linear interpolation. Mean 0, standard deviation 1 (to within the
     * table's quantization; see tests for measured moments).
     */
    double normal() { return normal(normalQuantiles()); }

    /**
     * normal() over the table normalQuantiles() returns, for hot loops
     * that cache the pointer (the accessor's function-local static
     * costs a guard check per call).
     */
    double
    normal(const double *quantiles)
    {
        // Index with 12 bits, interpolate with the remaining fraction.
        std::uint64_t r = next();
        auto idx = static_cast<std::uint32_t>(r >> 52);
        double frac =
            static_cast<double>((r >> 20) & 0xffffffffull) * 0x1.0p-32;
        double lo = quantiles[idx];
        double hi = quantiles[idx + (idx < NORMAL_TABLE_SIZE ? 1u : 0u)];
        return lo + (hi - lo) * frac;
    }

    /** Normal draw with the given mean and standard deviation. */
    double
    normal(double mean, double sigma)
    {
        return mean + sigma * normal();
    }

    /** Entries of the inverse-CDF table, less one. */
    static constexpr std::uint32_t NORMAL_TABLE_SIZE = 4096;

    /** The shared inverse-CDF table (NORMAL_TABLE_SIZE + 1 quantiles),
     *  built on first use. */
    static const double *normalQuantiles();

    /** Raw generator state (checkpointing). Every draw is a pure
     *  function of this state, so save/restore reproduces the stream
     *  bit-for-bit. */
    const std::array<std::uint64_t, 4> &state() const { return state_; }
    void setState(const std::array<std::uint64_t, 4> &s) { state_ = s; }

  private:
    std::array<std::uint64_t, 4> state_;

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }
};

} // namespace mcd

#endif // MCD_COMMON_RANDOM_HH
