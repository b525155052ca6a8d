/**
 * @file
 * A reusable thread pool with sharded parallelFor — the software
 * mirror of the accelerator's multi-core layout.
 *
 * The Lightening-Transformer chip is an array of Nt x Nc DPTC tensor
 * cores operating in parallel; the functional model exploits host
 * parallelism the same way: a GEMM's output tiles are sharded into
 * contiguous ranges and each shard runs on one worker ("core"). All
 * parallelism in the repo routes through this pool so thread count is
 * controlled in exactly one place (ThreadPool::global(), overridable
 * via setGlobalThreads() or the LT_NUM_THREADS environment variable).
 *
 * Determinism contract: parallelFor always splits the index range into
 * the SAME shards for a given (n, numShards) regardless of how many OS
 * threads actually execute them, and the shard index is passed to the
 * body. Callers that seed randomness per index (counter-based RNG)
 * therefore produce bit-identical results at any thread count.
 *
 * Fork contract: a forked child (e.g. a gtest death test) abandons the
 * global pool it inherited, whose workers did not survive the fork,
 * and gets a fresh one from ThreadPool::global() on first use. exit()
 * in the child therefore never joins the parent's threads.
 */

#ifndef LT_UTIL_PARALLEL_HH
#define LT_UTIL_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lt {

/** Fixed-size worker pool executing submitted tasks FIFO. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 picks LT_NUM_THREADS if set, else
     *        std::thread::hardware_concurrency().
     */
    explicit ThreadPool(size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t numThreads() const { return workers_.size() + 1; }

    /**
     * Run body(begin, end, shard) over [0, n) split into numShards
     * contiguous ranges. Blocks until every shard completed. Shard
     * boundaries depend only on (n, numShards): results are
     * independent of the worker count executing them. Safe to call
     * from within a worker (nested calls run inline on the caller).
     *
     * @param n iteration count
     * @param numShards shard count; 0 means numThreads()
     * @param body callable (size_t begin, size_t end, size_t shard)
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t, size_t, size_t)>
                         &body,
                     size_t numShards = 0);

    /** Convenience: per-index body without shard bookkeeping. */
    void
    parallelForEach(size_t n, const std::function<void(size_t)> &body)
    {
        parallelFor(n, [&](size_t begin, size_t end, size_t) {
            for (size_t i = begin; i < end; ++i)
                body(i);
        });
    }

    /**
     * The process-wide pool used by the execution engine and the
     * blocked matmul. Created on first use.
     */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of `threads` workers (used by
     * the scaling bench and the determinism tests). Existing
     * references to the old pool must not be in use.
     */
    static void setGlobalThreads(size_t threads);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

} // namespace lt

#endif // LT_UTIL_PARALLEL_HH
