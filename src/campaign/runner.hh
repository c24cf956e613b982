/**
 * @file
 * The generic campaign core: one execution discipline shared by every
 * scenario *mode* (batch sim, request-level serving, NN inference —
 * and whatever comes next).
 *
 * A campaign is a list of independent cells addressed by a global
 * index. The core owns everything mode-agnostic about running one:
 *
 *  - `i % n` sharding of the global index space (RunOptions);
 *  - the cached-cell discipline: open and load the mode's JsonlCache,
 *    then per cell label → key → lookup → replay, or compute →
 *    append; hit/miss accounting; the wall rule (runCampaign);
 *  - thread-pool fan-out over the index space (forEachTask), with one
 *    atomic work queue, stable worker indices, and propagation of the
 *    first worker exception to the caller;
 *  - one telemetry shard per task, folded in task order, so
 *    `--metrics-out` sums do not depend on the scheduling;
 *  - one grow-only ScratchArena per worker, so every device a worker
 *    builds reuses the same functional-path buffers;
 *  - precomputed-index result ordering: records are stored by task
 *    index, so report order never depends on scheduling;
 *  - wall-clock measurement, with `--deterministic` zeroing of the
 *    only nondeterministic fields.
 *
 * A mode supplies four things: its full task list, a content key per
 * task, a compute function and its record labels (CellFns), and
 * renders the returned Report. Byte-identity of sharded+cached
 * campaigns vs cold runs cannot diverge between modes, because the
 * cell loop has exactly one implementation.
 */

#ifndef PLUTO_CAMPAIGN_RUNNER_HH
#define PLUTO_CAMPAIGN_RUNNER_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/arena.hh"
#include "common/logging.hh"
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

/** Threads of the `threads` budget (0 = hardware concurrency) left
 *  over when forEachTask runs `count` tasks: a cell may borrow them
 *  to pipeline its own work. */
u32 spareThreads(std::size_t count, u32 threads);

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

/** Per-cell progress callback: serialized, may be empty. */
template <typename Record>
using Progress =
    std::function<void(const Record &, u64 done, u64 total)>;

/**
 * The cached outcome of one campaign, as every mode reports it:
 * the executed shard's records in task order plus the Stats.
 * `Record` carries `out` (the cached outcome, with a `verified`
 * flag) and `fromCache`.
 */
template <typename Record>
struct Report : Stats
{
    /** This shard's records, in global task order. */
    std::vector<Record> runs;

    /** @return true when every record verified (and there is one). */
    bool allVerified() const
    {
        for (const auto &r : runs)
            if (!r.out.verified)
                return false;
        return !runs.empty();
    }
};

/** What a mode supplies for one cell of its task list. */
template <typename Task, typename Record>
struct CellFns
{
    /** Fill the record's labels (everything except `out`). */
    std::function<void(const Task &, Record &)> label;
    /** @return the task's content key in the mode's cache. */
    std::function<std::string(const Task &)> key;
    /** Compute `rec.out` fresh, on the worker's scratch arena. */
    std::function<void(const Task &, Record &, ScratchArena &)> compute;
    /** Optional: told once, before any cell runs, how many threads
     *  of the `--threads` budget this shard's cells leave idle
     *  (spareThreads); the mode may lend them to its cells. */
    std::function<void(u32)> spare;
};

/**
 * The one cached-cell loop. Runs this shard's part of `tasks` (task
 * `g` belongs to the shard when opt.inShard(g)) under `opt`, which
 * must validate(). With `opt.cacheDir` set it loads the mode's
 * `Cache` (a JsonlCache subclass) for `scenario`; each cell is then
 * labelled, keyed and replayed from the cache on a hit, or computed
 * and appended on a miss.
 *
 * Wall rule: an outcome with a `wallMs` member stores the host wall
 * of the cell that computed it (0 under --deterministic) and replays
 * the stored value (0 under --deterministic). Outcomes without one
 * cache no wall.
 *
 * Determinism contract: `compute` must be a pure function of the
 * task (the arena never changes simulated results), so records are
 * bit-identical across thread counts, shards and cache replays.
 */
template <typename Cache, typename Task, typename Record>
Report<Record>
runCampaign(const std::vector<Task> &tasks, const RunOptions &opt,
            const std::string &scenario,
            const CellFns<Task, Record> &cell,
            const std::type_identity_t<Progress<Record>> &progress =
                nullptr)
{
    const std::string oerr = opt.validate();
    if (!oerr.empty())
        fatal("campaign: %s", oerr.c_str());

    std::vector<const Task *> mine;
    for (std::size_t g = 0; g < tasks.size(); ++g)
        if (opt.inShard(g))
            mine.push_back(&tasks[g]);

    std::optional<Cache> cache;
    if (!opt.cacheDir.empty()) {
        cache.emplace(opt.cacheDir, scenario);
        const std::string cerr = cache->load();
        if (!cerr.empty())
            fatal("%s cache: %s", Cache::kKind, cerr.c_str());
    }

    constexpr bool kWall = requires(Record &r) { r.out.wallMs; };
    Report<Record> report;
    report.runs.resize(mine.size());
    const std::size_t count = mine.size();
    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<u64> done{0};
    std::atomic<u64> hits{0};
    std::mutex progress_mu;

    std::vector<ScratchArena> arenas(
        resolveThreads(count, opt.threads));
    if (cell.spare)
        cell.spare(spareThreads(count, opt.threads));

    forEachTask(count, opt.threads, [&](std::size_t i, u32 worker) {
        const Task &task = *mine[i];
        Record &rec = report.runs[i];
        auto *tr = obs::tracer();
        const double span0 = tr ? tr->nowNs() : 0.0;
        const auto c0 = std::chrono::steady_clock::now();

        cell.label(task, rec);
        const std::string key = cache ? cell.key(task) : std::string();
        auto hit = cache ? cache->lookup(key) : std::nullopt;
        if (hit) {
            // Simulated outcomes are deterministic, so a replay is
            // bit-identical to recomputation.
            rec.out = std::move(*hit);
            if constexpr (kWall)
                if (opt.deterministic)
                    rec.out.wallMs = 0.0;
            rec.fromCache = true;
        } else {
            cell.compute(task, rec, arenas[worker]);
            if constexpr (kWall)
                rec.out.wallMs = opt.deterministic ? 0.0 : msSince(c0);
            if (cache) {
                const std::string err = cache->append(key, rec.out);
                if (!err.empty())
                    warn("%s cache: %s", Cache::kKind, err.c_str());
            }
        }

        if (tr)
            tr->hostSpan("cell", span0, tr->nowNs(),
                         {obs::argNum("cell", static_cast<double>(i)),
                          obs::argNum("cache_hit",
                                      rec.fromCache ? 1.0 : 0.0)});
        if (auto *sh = obs::shard()) {
            sh->inc("campaign/cells");
            sh->inc(rec.fromCache ? "campaign/cache/hits"
                                  : "campaign/cache/misses");
        }
        if (rec.fromCache)
            hits.fetch_add(1, std::memory_order_relaxed);
        const u64 n = done.fetch_add(1) + 1;
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mu);
            progress(rec, n, count);
        }
    });

    report.cacheHits = hits.load();
    report.cacheMisses = count - report.cacheHits;
    report.wallMs = opt.deterministic ? 0.0 : msSince(t0);
    // forEachTask rebound this thread to the root shard, so the
    // phase-level wall lands there. Under --deterministic the phase
    // wall is zeroed like every other host-time field, so --metrics-out
    // files byte-compare across reruns and memo modes.
    if (auto *sh = obs::shard())
        sh->add("campaign/phase/run_ms",
                opt.deterministic ? 0.0 : msSince(t0));
    return report;
}

} // namespace pluto::campaign

#endif // PLUTO_CAMPAIGN_RUNNER_HH
