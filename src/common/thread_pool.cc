#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <vector>

#include "telemetry/profiler.hh"
#include "telemetry/stat_registry.hh"

namespace mcd
{

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool *pool = new ThreadPool();
    return *pool;
}

void
ThreadPool::reserve(int threads)
{
    std::lock_guard<std::mutex> lock(mutex_);
    while (static_cast<int>(threads_.size()) < threads)
        threads_.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    task_ready_.notify_one();
}

void
ThreadPool::forEach(std::size_t count, std::size_t width,
                    const std::function<void(std::size_t)> &body)
{
    // Shared with the helpers: one that starts after the batch is over
    // claims no index, so it never touches `body`.
    struct Batch
    {
        std::atomic<std::size_t> next{0};
        std::size_t done = 0;
        std::mutex m;
        std::condition_variable cv;
        std::vector<std::exception_ptr> errors;
    };
    auto batch = std::make_shared<Batch>();
    batch->errors.resize(count);
    auto drain = [batch, count, body = &body] {
        for (std::size_t i; (i = batch->next++) < count;) {
            try {
                (*body)(i);
            } catch (...) {
                batch->errors[i] = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(batch->m);
            if (++batch->done == count)
                batch->cv.notify_all();
        }
    };
    std::size_t helpers =
        width > 1 && count > 1 ? std::min(width, count) - 1 : 0;
    reserve(static_cast<int>(helpers));
    for (std::size_t h = 0; h < helpers; ++h)
        submit(drain);
    drain();

    // Every index is claimed; wait for those still running elsewhere.
    std::unique_lock<std::mutex> lock(batch->m);
    batch->cv.wait(lock, [&] { return batch->done == count; });
    for (const std::exception_ptr &error : batch->errors)
        if (error)
            std::rethrow_exception(error);
}

void
ThreadPool::workerLoop()
{
    static telemetry::Counter &tasks =
        telemetry::StatRegistry::instance().counter("pool.tasks");
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            task_ready_.wait(lock, [this] { return !queue_.empty(); });
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        tasks.inc();
        telemetry::ScopedTimer timer(telemetry::Phase::PoolTask);
        task();
    }
}

} // namespace mcd
