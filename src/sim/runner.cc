/**
 * @file
 * Batch scenario execution on the campaign core (see runner.hh).
 */

#include "sim/runner.hh"

#include <chrono>
#include <optional>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/cache.hh"

namespace pluto::sim
{

namespace
{

/** Static description of one run, expanded from the config. */
struct RunTask
{
    u32 device = 0;
    u32 workload = 0;
    u32 repeat = 0;
};

} // namespace

bool
ScenarioReport::allVerified() const
{
    for (const auto &r : runs)
        if (!r.result.verified)
            return false;
    return !runs.empty();
}

ScenarioRunner::ScenarioRunner(SimConfig cfg) : cfg_(std::move(cfg)) {}

ScenarioReport
ScenarioRunner::run(u32 threads, const Progress &progress) const
{
    RunOptions opt;
    opt.threads = threads;
    return run(opt, progress);
}

ScenarioReport
ScenarioRunner::run(const RunOptions &opt,
                    const Progress &progress) const
{
    const std::string oerr = opt.validate();
    if (!oerr.empty())
        fatal("ScenarioRunner: %s", oerr.c_str());

    // Expand the cross product up front so every run has a stable
    // global index: report order never depends on scheduling, and
    // shards partition the index space deterministically.
    std::vector<RunTask> tasks;
    {
        u64 g = 0;
        for (u32 d = 0; d < cfg_.devices.size(); ++d)
            for (u32 w = 0; w < cfg_.workloads.size(); ++w) {
                const u32 reps =
                    cfg_.workloads[w].repeats * cfg_.repeats;
                for (u32 r = 0; r < reps; ++r, ++g)
                    if (opt.inShard(g))
                        tasks.push_back({d, w, r});
            }
    }

    std::optional<RunCache> cache;
    if (!opt.cacheDir.empty()) {
        cache.emplace(opt.cacheDir, cfg_.name);
        const std::string cerr = cache->load();
        if (!cerr.empty())
            fatal("run cache: %s", cerr.c_str());
    }

    ScenarioReport report;
    const campaign::Stats stats = campaign::runCampaign(
        tasks.size(), opt, report.runs,
        [&](std::size_t i, RunRecord &rec, ScratchArena &arena) {
            const RunTask &t = tasks[i];
            const DeviceSpec &ds = cfg_.devices[t.device];
            const WorkloadSpec &ws = cfg_.workloads[t.workload];

            const auto t0 = std::chrono::steady_clock::now();
            const auto w = workloads::makeWorkload(ws.name);
            const u64 elements =
                ws.elements ? ws.elements
                            : w->defaultElements(ds.config.memory);

            rec.variant = ds.name;
            rec.workload = ws.name;
            rec.repeat = t.repeat;
            rec.seed = ws.seed;
            rec.rates = w->rates();

            std::string key;
            std::optional<CachedRun> hit;
            if (cache) {
                key = RunCache::key(ds.config, ws.name, elements,
                                    ws.seed, t.repeat);
                hit = cache->lookup(key);
            }
            if (hit) {
                // Simulated results are deterministic: replaying the
                // cache is bit-identical to recomputation. The stored
                // wall-clock is replayed too, keeping warm reruns
                // byte-identical to the run that populated the cache.
                rec.result.elements = hit->elements;
                rec.result.timeNs = hit->timeNs;
                rec.result.energyPj = hit->energyPj;
                rec.result.hostNs = hit->hostNs;
                rec.result.verified = hit->verified;
                rec.wallMs = opt.deterministic ? 0.0 : hit->wallMs;
                rec.fromCache = true;
                return true;
            }
            // Per-run device and workload: nothing is shared between
            // runs except the worker's scratch arena, so simulated
            // results cannot depend on threading.
            runtime::DeviceConfig cfg = ds.config;
            cfg.arena = &arena;
            runtime::PlutoDevice dev(cfg);
            auto *tr = obs::tracer();
            if (tr)
                dev.scheduler().setTraceLimit(4096);
            rec.result = w->run(dev, elements, ws.seed);
            rec.wallMs =
                opt.deterministic ? 0.0 : campaign::msSince(t0);
            if (auto *sh = obs::shard()) {
                sh->inc("sim/runs");
                sh->add("sim/elements",
                        static_cast<double>(rec.result.elements));
                // Distribution, not just totals: per-run simulated
                // time folds exactly across workers and shards.
                sh->hist("sim/run_ns").add(rec.result.timeNs);
                sh->absorb("device", dev.stats().counters);
            }
            if (tr) {
                // One virtual-time track per fresh run: the command
                // stream as the modeled hardware would execute it.
                const u64 track = tr->newVirtualTrack(
                    ds.name + "/" + ws.name + " #" +
                    std::to_string(t.repeat));
                for (const auto &ev : dev.scheduler().trace())
                    tr->virtualSpan(track, ev.name, ev.start,
                                    ev.end - ev.start);
            }
            if (cache) {
                CachedRun c;
                c.elements = rec.result.elements;
                c.timeNs = rec.result.timeNs;
                c.energyPj = rec.result.energyPj;
                c.hostNs = rec.result.hostNs;
                c.verified = rec.result.verified;
                c.wallMs = rec.wallMs;
                const std::string err = cache->append(key, c);
                if (!err.empty())
                    warn("run cache: %s", err.c_str());
            }
            return false;
        },
        progress);

    report.wallMs = stats.wallMs;
    report.cacheHits = stats.cacheHits;
    report.cacheMisses = stats.cacheMisses;
    return report;
}

} // namespace pluto::sim
