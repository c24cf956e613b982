/**
 * @file
 * The generic campaign core: one execution discipline shared by every
 * scenario *mode* (batch sim, request-level serving, NN inference —
 * and whatever comes next).
 *
 * A campaign is a grid of independent cells addressed by a global
 * index. The core owns everything mode-agnostic about running one:
 *
 *  - thread-pool fan-out over the index space (forEachTask), with one
 *    atomic work queue, stable worker indices, and propagation of the
 *    first worker exception to the caller;
 *  - one telemetry shard per task, folded in task order, so
 *    `--metrics-out` sums do not depend on the scheduling;
 *  - `i % n` sharding of the global index space (RunOptions);
 *  - one grow-only ScratchArena per worker, so every device a worker
 *    builds reuses the same functional-path buffers;
 *  - precomputed-index result ordering: records are stored by task
 *    index, so report order never depends on scheduling;
 *  - cache-hit accounting and wall-clock measurement, with
 *    `--deterministic` zeroing of the only nondeterministic fields.
 *
 * Modes stay thin clients: they expand their task grid, provide a
 * cell function (compute one record, consulting their JsonlCache),
 * and render reports. The discipline — and therefore byte-identity
 * of sharded+cached campaigns vs cold runs — cannot diverge between
 * modes, because there is only one implementation of it.
 */

#ifndef PLUTO_CAMPAIGN_RUNNER_HH
#define PLUTO_CAMPAIGN_RUNNER_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/types.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace pluto::campaign
{

/** Execution options shared by every campaign mode. */
struct RunOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    u32 threads = 0;
    /** This process executes cells whose global index i satisfies
     *  i % shardCount == shardIndex. */
    u32 shardIndex = 0;
    u32 shardCount = 1;
    /** Result-cache directory; empty disables caching. */
    std::string cacheDir;
    /** Zero all host wall-clock fields in the report. */
    bool deterministic = false;

    /** @return empty string, or why the options are invalid. */
    std::string validate() const;

    /** @return true when global cell index `g` is in this shard. */
    bool inShard(u64 g) const
    {
        return g % shardCount == shardIndex;
    }
};

/** Mode-agnostic accounting of one campaign execution. */
struct Stats
{
    /** Host wall-clock of the whole campaign, milliseconds (0 under
     *  deterministic mode). */
    double wallMs = 0.0;
    /** Cells replayed from a cache / computed fresh. */
    u64 cacheHits = 0;
    u64 cacheMisses = 0;
};

/** Milliseconds elapsed since `t0` on the host clock. */
double msSince(const std::chrono::steady_clock::time_point &t0);

/** Effective worker count forEachTask will use for `count` tasks. */
u32 resolveThreads(std::size_t count, u32 threads);

/**
 * Execute `count` indexed tasks across `threads` worker threads
 * (0 = hardware concurrency, clamped to the task count) pulling
 * indices from one atomic queue. `fn` receives the task index and
 * the worker index in [0, resolveThreads(count, threads)), so
 * workers can own per-thread state (e.g. a ScratchArena). If a
 * worker throws, the remaining queue is drained without running
 * further tasks, all workers are joined, and the first exception is
 * rethrown on the calling thread. With telemetry enabled, task i
 * writes to its own registry shard; after the join the shards fold
 * into the root in task order and the caller is bound to the root.
 */
void forEachTask(std::size_t count, u32 threads,
                 const std::function<void(std::size_t, u32)> &fn);

/**
 * The one campaign loop. Fills `records[i]` for every task index by
 * calling `cell(i, records[i], arena)` — which returns true when the
 * record was replayed from a cache — and reports progress through
 * `progress` (serialized; may be empty). `opt` must already
 * validate(); records are resized to `count`.
 *
 * Determinism contract: `cell` must compute records as a pure
 * function of the task (the arena never changes simulated results),
 * so records are bit-identical across thread counts and schedules.
 */
template <typename Record, typename Cell>
Stats
runCampaign(std::size_t count, const RunOptions &opt,
            std::vector<Record> &records, const Cell &cell,
            const std::function<void(const Record &, u64 done,
                                     u64 total)> &progress = nullptr)
{
    records.clear();
    records.resize(count);

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<u64> done{0};
    std::atomic<u64> hits{0};
    std::mutex progress_mu;

    std::vector<ScratchArena> arenas(
        resolveThreads(count, opt.threads));

    forEachTask(count, opt.threads, [&](std::size_t i, u32 worker) {
        Record &rec = records[i];
        auto *tr = obs::tracer();
        const double span0 = tr ? tr->nowNs() : 0.0;
        const bool hit = cell(i, rec, arenas[worker]);
        if (tr)
            tr->hostSpan("cell", span0, tr->nowNs(),
                         {obs::argNum("cell", static_cast<double>(i)),
                          obs::argNum("cache_hit", hit ? 1.0 : 0.0)});
        if (auto *sh = obs::shard()) {
            sh->inc("campaign/cells");
            sh->inc(hit ? "campaign/cache/hits"
                        : "campaign/cache/misses");
        }
        if (hit)
            hits.fetch_add(1, std::memory_order_relaxed);
        const u64 n = done.fetch_add(1) + 1;
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mu);
            progress(rec, n, count);
        }
    });

    Stats stats;
    stats.cacheHits = hits.load();
    stats.cacheMisses = count - stats.cacheHits;
    stats.wallMs = opt.deterministic ? 0.0 : msSince(t0);
    // forEachTask rebound this thread to the root shard, so the
    // phase-level wall lands there. Under --deterministic the phase
    // wall is zeroed like every other host-time field, so --metrics-out
    // files byte-compare across reruns and memo modes.
    if (auto *sh = obs::shard())
        sh->add("campaign/phase/run_ms",
                opt.deterministic ? 0.0 : msSince(t0));
    return stats;
}

} // namespace pluto::campaign

#endif // PLUTO_CAMPAIGN_RUNNER_HH
