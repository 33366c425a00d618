/**
 * @file
 * Multithreaded batch sweep engine: fans a batch of independent,
 * indexed jobs across the process-wide ThreadPool, at most `workers`
 * threads at once, and collects the results in index order.
 *
 * Determinism contract: a sweep's results are bit-identical regardless
 * of worker count or scheduling. Two mechanisms guarantee it:
 *
 *  - every job writes its result into a pre-assigned slot, and
 *    aggregation only happens after the whole batch completes, in
 *    index order (floating-point accumulation order is therefore
 *    fixed);
 *  - every job's clock seed is derived from a seed index
 *    (deriveJobSeed), never from the executing thread or from wall
 *    clock, so a job simulates the same machine no matter when or
 *    where it runs. Jobs that must stay comparable (the machine
 *    variants of one benchmark, or a schedule probe measured against a
 *    cached baseline) share a seed index.
 *
 * The engine backs the figure sweeps (bench/fig4..fig7), the offline
 * Dynamic-X% margin search (OfflineSearchSpec::build), and any future
 * scenario that batches independent runs.
 */

#ifndef MCD_HARNESS_PARALLEL_SWEEP_HH
#define MCD_HARNESS_PARALLEL_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace mcd
{

/**
 * Mix a base seed with a job index into an independent, reproducible
 * per-job seed (splitmix64 finalizer: consecutive indices yield
 * decorrelated streams).
 */
std::uint64_t deriveJobSeed(std::uint64_t base_seed,
                            std::uint64_t job_index);

/** Fan-out of indexed jobs across the shared ThreadPool. */
class ParallelSweep
{
  public:
    /**
     * @param workers  number of worker threads; 0 selects
     *                 defaultWorkers() (MCD_JOBS env override, else
     *                 hardware concurrency)
     */
    explicit ParallelSweep(int workers = 0);

    /** MCD_JOBS env override if positive, else hardware concurrency. */
    static int defaultWorkers();

    int workers() const { return workers_; }

    /**
     * Generic deterministic fan-out: invoke `body(i)` for i in
     * [0, count) across the workers (the caller is one). The caller's
     * body must only write state owned by index i. With one worker the
     * batch runs inline on the calling thread, in index order.
     *
     * The first exception thrown by any body (lowest index wins, so
     * error reporting is schedule-independent) is rethrown on the
     * calling thread after the batch drains.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &body) const;

    /** forEach that collects return values, in index order. */
    template <typename R>
    std::vector<R>
    map(std::size_t count,
        const std::function<R(std::size_t)> &body) const
    {
        std::vector<R> results(count);
        forEach(count,
                [&](std::size_t i) { results[i] = body(i); });
        return results;
    }

  private:
    int workers_;
};

} // namespace mcd

#endif // MCD_HARNESS_PARALLEL_SWEEP_HH
