#include "parallel.hh"

#include <atomic>
#include <cstdlib>
#include <memory>

#include <pthread.h>

#include "util/logging.hh"

namespace lt {

namespace {

/** Set while the current thread executes inside a pool task. */
thread_local bool tl_inside_pool = false;

size_t
defaultThreadCount()
{
    if (const char *env = std::getenv("LT_NUM_THREADS")) {
        long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<size_t>(v);
        warn("ignoring invalid LT_NUM_THREADS=", env);
    }
    size_t hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::unique_ptr<ThreadPool> g_pool;
std::mutex g_pool_mutex;

// A forked child inherits g_pool but none of its worker threads.
// Joining them (as exit() would, via ~ThreadPool) crashes or hangs,
// and queued work would never run, so the child abandons the
// inherited pool; global() builds a fresh one on first use.
const int g_atfork_registered = pthread_atfork(
    [] { g_pool_mutex.lock(); },
    [] { g_pool_mutex.unlock(); },
    [] {
        g_pool_mutex.unlock();
        (void)g_pool.release();
    });

} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    // The calling thread counts as one executor; spawn the rest.
    workers_.reserve(threads - 1);
    for (size_t i = 0; i + 1 < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    tl_inside_pool = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !tasks_.empty(); });
            if (stopping_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void
ThreadPool::parallelFor(
    size_t n, const std::function<void(size_t, size_t, size_t)> &body,
    size_t numShards)
{
    if (n == 0)
        return;
    if (numShards == 0)
        numShards = numThreads();
    numShards = std::min(numShards, n);

    // Contiguous split: shard s covers [s*q + min(s,r), ...) where
    // q = n / numShards, r = n % numShards. Depends only on
    // (n, numShards) — never on the executing thread count.
    const size_t q = n / numShards;
    const size_t r = n % numShards;
    auto runShard = [&](size_t s) {
        size_t begin = s * q + std::min(s, r);
        size_t end = begin + q + (s < r ? 1 : 0);
        body(begin, end, s);
    };

    // Inline paths: single-threaded pool, one shard, or a nested call
    // from inside a worker (running inline avoids deadlocking on our
    // own queue).
    if (workers_.empty() || numShards == 1 || tl_inside_pool) {
        for (size_t s = 0; s < numShards; ++s)
            runShard(s);
        return;
    }

    struct SharedState
    {
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        std::mutex mutex;
        std::condition_variable cv;
    };
    auto state = std::make_shared<SharedState>();
    const size_t total = numShards;

    auto drain = [state, total, runShard] {
        for (;;) {
            size_t s = state->next.fetch_add(1);
            if (s >= total)
                break;
            runShard(s);
            if (state->done.fetch_add(1) + 1 == total) {
                std::lock_guard<std::mutex> lock(state->mutex);
                state->cv.notify_all();
            }
        }
    };

    const size_t helpers = std::min(workers_.size(), numShards - 1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t i = 0; i < helpers; ++i)
            tasks_.push(drain);
    }
    cv_.notify_all();

    drain(); // the calling thread works too

    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] {
        return state->done.load() == total;
    });
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>();
    return *g_pool;
}

void
ThreadPool::setGlobalThreads(size_t threads)
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    g_pool = std::make_unique<ThreadPool>(threads);
}

} // namespace lt
