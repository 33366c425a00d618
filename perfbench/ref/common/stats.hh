/**
 * @file
 * Lightweight statistics primitives in the spirit of the gem5 stats
 * package: named scalar counters, running means/variances, and fixed-bin
 * histograms. These are deliberately simple — the harness layer turns
 * them into the paper's derived metrics.
 */

#ifndef MCD_COMMON_STATS_HH
#define MCD_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

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

/**
 * Streaming mean / variance / min / max via Welford's algorithm.
 * Numerically stable for long runs.
 */
class RunningStats
{
  public:
    void push(double x);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    void reset();

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-width-bin histogram over [lo, hi); out-of-range goes to end bins. */
class Histogram
{
  public:
    Histogram(double lo, double hi, int bins);

    void push(double x);

    std::uint64_t count() const { return count_; }
    int bins() const { return static_cast<int>(counts_.size()); }
    std::uint64_t binCount(int bin) const;
    /** Lower edge of the given bin. */
    double binLow(int bin) const;
    /** Fraction of samples in the given bin. */
    double binFraction(int bin) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::uint64_t count_ = 0;
    std::vector<std::uint64_t> counts_;
};

/**
 * A registry mapping stat names to scalar values, used for machine-
 * readable dumps of a run. Values are doubles; counters are widened.
 */
class StatDump
{
  public:
    void set(const std::string &name, double value);
    double get(const std::string &name) const;
    bool has(const std::string &name) const;

    /** Render "name value" lines, sorted by name. */
    std::string render() const;

  private:
    std::map<std::string, double> values_;
};

} // namespace mcd

#endif // MCD_COMMON_STATS_HH
