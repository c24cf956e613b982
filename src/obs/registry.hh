/**
 * @file
 * Hierarchical, thread-aware counter/gauge registry — the one
 * telemetry sink every subsystem emits into.
 *
 * Names are path-style ("device/sched/tfaw_stall_ns",
 * "campaign/cache/hits"); the registry renders them as a nested JSON
 * tree for `--metrics-out`. Two merge semantics: *counters* sum and
 * *gauges* keep the maximum.
 *
 * Concurrency model (no locks on the hot path):
 *  - the registry is disabled by default; `obs::shard()` is then a
 *    null pointer and instrumentation costs one branch;
 *  - when enabled, each campaign *task* gets its own CounterShard:
 *    the worker thread running task i binds (bindThread) to shard i
 *    for the duration of the task and writes to it exclusively;
 *  - after the workers joined, the coordinating thread folds the
 *    task shards into the root shard in task order. The fold needs
 *    no atomics because it happens outside the parallel phase, and
 *    because its order does not follow the scheduling, double
 *    counters sum with the same association at any thread count, so
 *    `--metrics-out` is byte-stable across reruns;
 *  - the main thread is bound to the root shard on enable().
 *
 * Telemetry is side-band: nothing in here feeds back into simulated
 * results, so `--deterministic` campaign outputs are byte-identical
 * with the registry enabled or disabled.
 */

#ifndef PLUTO_OBS_REGISTRY_HH
#define PLUTO_OBS_REGISTRY_HH

#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/histogram.hh"

namespace pluto::obs
{

/** One thread's slice of the hierarchical counter space. */
class CounterShard
{
  public:
    /** Add `delta` to counter `path` (creating it at zero). */
    void add(const std::string &path, double delta)
    {
        counters_[path] += delta;
    }

    /** Increment counter `path` by one. */
    void inc(const std::string &path) { add(path, 1.0); }

    /** Raise gauge `path` to at least `v` (keep-max merge). */
    void gaugeMax(const std::string &path, double v);

    /**
     * @return the distribution at `path` (creating it empty). Unlike
     * counters these fold *exactly* across shards — bucket counts
     * sum — so merged quantiles equal the cold single-run ones.
     */
    Histogram &hist(const std::string &path)
    {
        return hists_[path];
    }

    /**
     * Fold a flat StatSet into this shard under `prefix`, translating
     * the legacy dotted names into path segments ("pluto.lut_reload"
     * under prefix "device" becomes "device/pluto/lut_reload"). This
     * is how the ad-hoc per-device StatSet plumbing drains into the
     * hierarchy.
     */
    void absorb(const std::string &prefix, const StatSet &stats);

    /** Merge counters (sum) and gauges (max) of `other` into this. */
    void merge(const CounterShard &other);

    /** Reset to empty. */
    void clear();

    /** @return true when nothing has been recorded. */
    bool empty() const
    {
        return counters_.empty() && gauges_.empty() &&
               hists_.empty();
    }

    /** @return sum-merged counters, path-ascending. */
    const std::map<std::string, double> &counters() const
    {
        return counters_;
    }

    /** @return max-merged gauges, path-ascending. */
    const std::map<std::string, double> &gauges() const
    {
        return gauges_;
    }

    /** @return exactly merged histograms, path-ascending. */
    const std::map<std::string, Histogram> &hists() const
    {
        return hists_;
    }

  private:
    std::map<std::string, double> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Histogram> hists_;
};

/** The process-wide registry (see file comment for the phases). */
class Registry
{
  public:
    /** @return the process-wide instance. */
    static Registry &get();

    /** @return true when telemetry collection is on. */
    bool enabled() const { return enabled_; }

    /**
     * Turn collection on/off. Enabling binds the calling thread to
     * the root shard; disabling unbinds it. Main-thread only.
     */
    void enable(bool on);

    /** Drop all recorded data (shards stay allocated). */
    void reset();

    /**
     * Grow the task shard pool to at least `n` slots. Call from the
     * coordinating thread before workers start; shard references stay
     * stable afterwards (deque storage).
     */
    void ensureTaskShards(std::size_t n);

    /** @return task shard `idx` (< the ensured count). */
    CounterShard &taskShard(std::size_t idx) { return tasks_.at(idx); }

    /** @return the root (main-thread) shard. */
    CounterShard &root() { return root_; }

    /**
     * Bind the calling thread to task shard `idx`, so obs::shard()
     * reaches it without knowing the task index. Unbind by binding
     * elsewhere or via enable(false)/thread exit.
     */
    void bindThread(std::size_t idx);

    /** Bind the calling thread to the root shard. */
    void bindThreadToRoot();

    /**
     * Fold every task shard into the root in index order and clear
     * the task shards. Call after the workers joined.
     */
    void mergeTaskShards();

    /** @return root plus any unmerged task shards, merged. */
    CounterShard snapshot() const;

    /**
     * Render the merged snapshot as a nested JSON tree, doubles
     * formatted with fmtDoubleExact (locale-stable, round-trips).
     * Keys in `header` (pre-rendered JSON values) precede the
     * "counters" tree; "distinct_counters" is filled in here.
     */
    std::string renderJson(
        const std::vector<std::pair<std::string, std::string>>
            &header) const;

  private:
    bool enabled_ = false;
    CounterShard root_;
    std::deque<CounterShard> tasks_;
};

/**
 * The calling thread's shard, or nullptr when telemetry is disabled
 * or the thread is unbound. The null check is the entire disabled-
 * path cost of an instrumentation site.
 */
CounterShard *shard();

} // namespace pluto::obs

#endif // PLUTO_OBS_REGISTRY_HH
