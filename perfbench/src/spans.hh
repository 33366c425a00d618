/**
 * @file
 * In-memory span log for the benchmark's traced runs. The benchmark
 * records one span around each of its own calls into a layer of the
 * library (a harness resolution, a table row, a served request), keeps
 * the spans in memory, and writes them out once at exit. Self time of
 * a span is its duration minus the union of its children's intervals;
 * `selfTimes` derives it per span name, with the root's self time
 * reported as the explicit `other` row.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds (CLOCK_MONOTONIC under libstdc++). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = no parent (a root)
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int thread = 0;
};

/** Small per-thread index, stable for the thread's lifetime. */
int threadIndex();

class SpanLog
{
  public:
    /** Off by default: untraced runs record nothing. */
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when disabled). */
    std::uint64_t open(const std::string &name, std::uint64_t parent);

    /** Close span `id` (no-op for 0). */
    void close(std::uint64_t id);

    std::vector<Span> spans() const;

    /**
     * Self time per span name over the subtree of root `root`, in ns.
     * The root's own self time appears as "other".
     */
    std::map<std::string, double> selfTimes(std::uint64_t root) const;

    /** Write every span as a JSON array to `path`. */
    bool write(const std::string &path) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_; index = id - 1
};

/** RAII span on a SpanLog. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name,
               std::uint64_t parent = 0)
        : log_(log), id_(log.open(name, parent))
    {
    }
    ~ScopedSpan() { log_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
