/**
 * @file
 * The process-wide worker pool: one set of threads shared by every
 * fan-out in the process — sweep batches (harness/parallel_sweep.hh),
 * the offline searches nested inside them, and the serve daemon's
 * units. Jobs are coarse (whole runs), so a mutex-protected FIFO is
 * fast enough. The pool grows on demand and is never freed, so its
 * threads live until the process exits.
 *
 * Nesting cannot deadlock: forEach's caller claims indices itself, and
 * a waiter waits only for indices a running thread has claimed, never
 * for queued work. Determinism is the callers' concern: bodies write
 * disjoint, pre-assigned slots.
 */

#ifndef MCD_COMMON_THREAD_POOL_HH
#define MCD_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcd
{

/** Growable set of worker threads draining a FIFO task queue. */
class ThreadPool
{
  public:
    /** The process-wide pool (created on first use, never freed). */
    static ThreadPool &shared();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Grow to at least `threads` worker threads; never shrinks. */
    void reserve(int threads);

    /**
     * Enqueue one task. Safe from any thread, including workers.
     *
     * Tasks must not let exceptions escape: one thrown from a task
     * terminates the process.
     */
    void submit(std::function<void()> task);

    /**
     * Fork-join: invoke `body(i)` for every i in [0, count) on the
     * calling thread plus up to `width - 1` pool threads, and return
     * once all have run; with width 1 the caller runs them in order.
     * The lowest failing index's exception is then rethrown.
     */
    void forEach(std::size_t count, std::size_t width,
                 const std::function<void(std::size_t)> &body);

  private:
    ThreadPool() = default;

    void workerLoop();

    std::mutex mutex_; //!< guards queue_ and threads_
    std::deque<std::function<void()>> queue_;
    std::condition_variable task_ready_;
    std::vector<std::thread> threads_; //!< never joined: pool is leaked
};

} // namespace mcd

#endif // MCD_COMMON_THREAD_POOL_HH
