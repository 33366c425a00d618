/**
 * @file
 * Process-wide hierarchical statistic registry (gem5/Sniper-style).
 *
 * Subsystems expose counters and log2-bucketed histograms under
 * dotted paths ("sim.commit.insns", "store.disk.read_bytes",
 * "serve.request.queue_ns", "pool.tasks"). Updates are relaxed
 * atomics — cheap enough for per-request and per-task paths — and a
 * snapshot is a point-in-time read of every stat, rendered as one
 * JSON object (the serve daemon's `metrics` verb).
 *
 * Two ownership models coexist:
 *
 *  - registry-owned stats: `counter(path)` / `histogram(path)`
 *    create-or-get a stat that lives for the process. Callers cache
 *    the returned reference so hot paths never touch the name map.
 *
 *  - bound views: a subsystem that owns its own `Counter` members
 *    (so independent instances — e.g. test-local caches — stay
 *    unregistered) publishes the process-wide instance with
 *    `bindCounter(path, &member)`. Binding is latest-wins and
 *    reversible (`unbind`), so sequentially constructed servers in
 *    tests don't fight. `bindFn` binds a derived value computed at
 *    snapshot time (e.g. hits = lookups - computes, or a level such
 *    as a queue depth).
 *
 * Nothing in here touches simulated state: stats observe wall-clock
 * reality only, so telemetry on vs off leaves every simulation
 * result byte-identical.
 */

#ifndef MCD_TELEMETRY_STAT_REGISTRY_HH
#define MCD_TELEMETRY_STAT_REGISTRY_HH

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mcd
{
namespace telemetry
{

/** Monotonic event count. Relaxed increments; exact totals. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Point-in-time copy of a histogram, safe to aggregate offline. */
struct HistogramData
{
    /** Bucket b holds values with bit_width == b, i.e. [2^(b-1), 2^b)
     *  (bucket 0 holds exactly 0). 65 buckets cover all of uint64. */
    static constexpr int BUCKETS = 65;

    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0; //!< valid only when count > 0
    std::uint64_t max = 0;
    std::uint64_t buckets[BUCKETS] = {};

    double mean() const
    {
        return count > 0
            ? static_cast<double>(sum) / static_cast<double>(count)
            : 0.0;
    }

    /**
     * Approximate quantile (q in [0,1]) by linear interpolation
     * inside the bucket holding the q-th sample, clamped to the
     * exact observed [min, max]. Log2 buckets bound the relative
     * error at 2x — plenty for a latency breakdown.
     */
    double quantile(double q) const;
};

/**
 * Fixed-bucket log2 histogram of non-negative samples (typically
 * nanoseconds or bytes). Recording is wait-free except for the
 * min/max CAS loops, which only retry under contention on fresh
 * extremes.
 */
class Histogram
{
  public:
    void record(std::uint64_t v);

    HistogramData read() const;

    /** Forget all samples (microbenchmark hygiene, test isolation). */
    void reset();

  private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{~0ull};
    std::atomic<std::uint64_t> max_{0};
    std::atomic<std::uint64_t> buckets_[HistogramData::BUCKETS] = {};
};

/** One stat in a snapshot. */
struct StatValue
{
    enum class Kind
    {
        Counter,
        Histogram,
    };

    std::string path;
    Kind kind = Kind::Counter;
    std::uint64_t counter = 0;   //!< Kind::Counter
    HistogramData hist;          //!< Kind::Histogram
};

/** The process-wide registry. See file comment for the model. */
class StatRegistry
{
  public:
    /** The singleton every subsystem publishes into. */
    static StatRegistry &instance();

    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Create-or-get an owned stat. The reference stays valid for
     *  the registry's lifetime; cache it outside hot loops. A path
     *  already bound or owned with a different kind is fatal-free:
     *  the owned stat wins and the call returns it (create) or the
     *  existing one (get). */
    Counter &counter(const std::string &path);
    Histogram &histogram(const std::string &path);

    /** Publish an externally-owned counter under `path` (latest
     *  wins). The pointer must outlive the binding; call `unbind`
     *  from the owner's destructor when the owner can die before the
     *  process does. */
    void bindCounter(const std::string &path, const Counter *stat);

    /** Bind a derived value computed at snapshot time. Keep the
     *  callback cheap and reentrancy-free: it runs under the
     *  registry mutex and must not touch the registry itself. */
    void bindFn(const std::string &path,
                std::function<std::uint64_t()> fn);

    /** Remove a binding (no-op when absent). Owned stats cannot be
     *  unbound — they are process-lifetime by design. */
    void unbind(const std::string &path);

    /** Point-in-time values of every stat whose path starts with
     *  `prefix`, sorted by path. */
    std::vector<StatValue> snapshot(const std::string &prefix = "") const;

    /** One flat JSON object keyed by dotted path, sorted; histograms
     *  become {count,sum,min,max,mean,p50,p95,p99}. A pure function
     *  of the snapshot. */
    static std::string renderJson(const std::vector<StatValue> &stats);

  private:
    struct Entry
    {
        StatValue::Kind kind = StatValue::Kind::Counter;
        // Owned storage (exactly one non-null for owned entries).
        std::unique_ptr<Counter> ownedCounter;
        std::unique_ptr<Histogram> ownedHistogram;
        // Bound view (non-owning).
        const Counter *boundCounter = nullptr;
        std::function<std::uint64_t()> fn;
    };

    mutable std::mutex mutex_;
    std::map<std::string, Entry> stats_;
};

} // namespace telemetry
} // namespace mcd

#endif // MCD_TELEMETRY_STAT_REGISTRY_HH
