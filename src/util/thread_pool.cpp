#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "util/env.hpp"
#include "util/logging.hpp"

namespace clm {

namespace {

/**
 * Completion latch of one parallelFor call, shared by the caller and its
 * helper tasks. A helper that only starts after the call returned finds
 * the cursor exhausted and touches nothing but this state, which the
 * shared_ptr keeps alive; @p body is dereferenced only for a claimed
 * chunk, and the caller does not return before every claimed chunk is
 * done.
 */
struct ForLatch
{
    const std::function<void(size_t, size_t)> *body = nullptr;
    size_t n = 0;
    size_t chunk = 0;
    size_t chunks = 0;
    std::atomic<size_t> next{0};    //!< Chunk cursor.
    std::atomic<size_t> done{0};    //!< Chunks finished.
    std::mutex mutex;
    std::condition_variable done_cv;
    bool all_done = false;          //!< Guarded by mutex.
    std::exception_ptr error;       //!< First throw; guarded by mutex.

    /** Claim and run chunks until the cursor is exhausted. */
    void drain()
    {
        for (;;) {
            const size_t c = next.fetch_add(1);
            if (c >= chunks)
                return;
            const size_t begin = c * chunk;
            try {
                (*body)(begin, std::min(begin + chunk, n));
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
            }
            if (done.fetch_add(1) + 1 == chunks) {
                std::lock_guard<std::mutex> lock(mutex);
                all_done = true;
                done_cv.notify_all();
            }
        }
    }

    /** Block until every chunk is done; returns the first throw. */
    std::exception_ptr await()
    {
        std::unique_lock<std::mutex> lock(mutex);
        done_cv.wait(lock, [this] { return all_done; });
        return error;
    }
};

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0) {
        // CLM_THREADS pins the default worker count (benchmarks and CI
        // use it for comparable runs), through the shared env-parsing
        // policy (util/env.hpp): unset or garbage (with a warning)
        // falls back to hardware concurrency, numeric values clamp
        // into [1, 1024] rather than spawn unbounded threads.
        const long fallback =
            std::max(1u, std::thread::hardware_concurrency());
        threads = static_cast<unsigned>(
            envInt("CLM_THREADS", fallback, 1, 1024));
    }
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    task_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            task_cv_.wait(lock,
                          [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
            if (in_flight_ == 0)
                done_cv_.notify_all();
        }
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CLM_ASSERT(!stop_, "submit after shutdown");
        tasks_.push(std::move(task));
        ++in_flight_;
    }
    task_cv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t, size_t)> &body)
{
    if (n == 0)
        return;
    const size_t max_chunks = std::min<size_t>(n, threads() * 2);
    if (max_chunks <= 1) {
        body(0, n);
        return;
    }
    auto latch = std::make_shared<ForLatch>();
    latch->body = &body;
    latch->n = n;
    latch->chunk = (n + max_chunks - 1) / max_chunks;
    latch->chunks = (n + latch->chunk - 1) / latch->chunk;
    // The caller works too, so one chunk needs no helper.
    const size_t helpers =
        std::min<size_t>(threads(), latch->chunks - 1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CLM_ASSERT(!stop_, "parallelFor after shutdown");
        for (size_t h = 0; h < helpers; ++h)
            tasks_.push([latch] { latch->drain(); });
        in_flight_ += helpers;
    }
    for (size_t h = 0; h < helpers; ++h)
        task_cv_.notify_one();

    latch->drain();
    if (std::exception_ptr error = latch->await())
        std::rethrow_exception(error);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

} // namespace clm
