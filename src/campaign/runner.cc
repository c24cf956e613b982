/**
 * @file
 * Campaign execution scaffolding (see runner.hh).
 */

#include "campaign/runner.hh"

#include <algorithm>
#include <exception>
#include <thread>

#include "obs/registry.hh"
#include "obs/trace.hh"

namespace pluto::campaign
{

std::string
RunOptions::validate() const
{
    if (shardCount == 0)
        return "shard count must be >= 1";
    if (shardIndex >= shardCount)
        return "shard index " + std::to_string(shardIndex) +
               " out of range (0.." + std::to_string(shardCount - 1) +
               ")";
    return {};
}

double
msSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

namespace
{

u32
threadBudget(u32 threads)
{
    return threads ? threads
                   : std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

u32
resolveThreads(std::size_t count, u32 threads)
{
    return std::min<u32>(threadBudget(threads),
                         std::max<std::size_t>(count, 1));
}

u32
spareThreads(std::size_t count, u32 threads)
{
    return threadBudget(threads) - resolveThreads(count, threads);
}

void
forEachTask(std::size_t count, u32 threads,
            const std::function<void(std::size_t, u32)> &fn)
{
    threads = resolveThreads(count, threads);

    // Telemetry: one shard per task, grown here (the coordinator) so
    // the workers below can bind lock-free. The shards fold into the
    // root in task order after the join, so counter sums associate
    // the same way whichever worker ran which task.
    auto &reg = obs::Registry::get();
    if (reg.enabled()) {
        reg.ensureTaskShards(count);
        reg.root().gaugeMax("campaign/workers",
                            static_cast<double>(threads));
    }

    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::exception_ptr first_error;

    const auto worker = [&](u32 w, bool spawned) {
        if (spawned) {
            if (auto *tr = obs::tracer())
                tr->setThreadName("worker " + std::to_string(w));
        }
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            if (reg.enabled())
                reg.bindThread(i);
            try {
                fn(i, w);
            } catch (...) {
                // Record the first failure and drain the queue so
                // every worker exits promptly; the caller sees the
                // exception after the join below.
                std::lock_guard<std::mutex> lock(err_mu);
                if (!first_error)
                    first_error = std::current_exception();
                next.store(count, std::memory_order_relaxed);
                return;
            }
        }
    };
    if (threads == 1) {
        worker(0, false);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (u32 i = 0; i < threads; ++i)
            pool.emplace_back(worker, i, true);
        for (auto &th : pool)
            th.join();
    }
    // Task boundary: the workers are gone (or, single-threaded, done),
    // so folding the task shards into the root needs no atomics.
    if (reg.enabled()) {
        reg.bindThreadToRoot();
        reg.mergeTaskShards();
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace pluto::campaign
