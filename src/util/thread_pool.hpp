/**
 * @file
 * Minimal blocking thread pool. Used to parallelize the tile rasterizer
 * and the vectorized CPU Adam (the paper's CPU-side work runs across all
 * cores), and to host the dedicated CPU Adam thread of §5.4.
 */

#ifndef CLM_UTIL_THREAD_POOL_HPP
#define CLM_UTIL_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace clm {

/**
 * Fixed-size worker pool with fork-join parallelFor.
 *
 * parallelFor keeps its completion state per call (a latch, not the
 * pool-global task count), and the calling thread claims chunks too.
 * So concurrent callers never wait on one another's work, and a
 * parallelFor nested inside a pool task completes even when every
 * worker is busy: the nested caller runs whatever chunks no worker
 * picks up.
 */
class ThreadPool
{
  public:
    /** Spawn @p threads workers. 0 selects the default: the CLM_THREADS
     *  environment variable when set (parsed by util/env.hpp — clamped
     *  into [1, 1024]; non-numeric values warn and fall back), else
     *  hardware concurrency — so benchmarks/CI can pin the pool size of
     *  global() without code changes. */
    explicit ThreadPool(unsigned threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threads() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Run @p body over [0, n) split into contiguous chunks across the
     * pool. Chunk c is [c*chunk, min(n, (c+1)*chunk)) with
     * chunk = ceil(n / min(n, 2*threads())) — a fixed partition, so
     * callers that reduce per-chunk partials in chunk order stay
     * deterministic. The calling thread claims chunks from the same
     * atomic cursor as the helper tasks it submits, and returns as
     * soon as every chunk of THIS call is done (other callers' tasks
     * are not waited for). @p body receives (begin, end). If a chunk
     * throws, the remaining chunks still run and the first exception
     * is rethrown to the caller.
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t, size_t)> &body);

    /** Enqueue one task; returns immediately. */
    void submit(std::function<void()> task);

    /** Block until every task submitted so far (including parallelFor's
     *  helper tasks) has finished. */
    void wait();

    /** Process-wide shared pool. */
    static ThreadPool &global();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable task_cv_;    //!< Wakes workers.
    std::condition_variable done_cv_;    //!< Wakes wait().
    size_t in_flight_ = 0;
    bool stop_ = false;
};

/**
 * Threshold-gated dispatch shared by the per-entry render passes: run
 * @p body over [0, n) through the global pool when @p parallel and the
 * item count makes forking worthwhile, else inline on the caller. ONE
 * definition of the policy — callers pick their threshold constant —
 * so the batched and sharded pipelines cannot drift apart. Only valid
 * for bodies whose items are independent (any split is bitwise
 * neutral).
 */
template <typename Body>
inline void
poolForRange(size_t n, bool parallel, size_t min_parallel,
             const Body &body)
{
    if (parallel && n >= min_parallel)
        ThreadPool::global().parallelFor(n, body);
    else
        body(0, n);
}

} // namespace clm

#endif // CLM_UTIL_THREAD_POOL_HPP
