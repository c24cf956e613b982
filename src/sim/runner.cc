/**
 * @file
 * Batch scenario execution on the campaign core (see runner.hh).
 */

#include "sim/runner.hh"

#include <vector>

#include "obs/registry.hh"
#include "obs/trace.hh"

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
    /** Element count, resolved for the variant's memory kind. */
    u64 elements = 0;
    workloads::BaselineRates rates;
};

} // namespace

ScenarioRunner::ScenarioRunner(SimConfig cfg) : cfg_(std::move(cfg)) {}

ScenarioReport
ScenarioRunner::run(const RunOptions &opt,
                    const Progress &progress) const
{
    // Expand the cross product up front so every run has a stable
    // global index: report order never depends on scheduling, and
    // shards partition the index space deterministically.
    std::vector<RunTask> tasks;
    for (u32 d = 0; d < cfg_.devices.size(); ++d)
        for (u32 w = 0; w < cfg_.workloads.size(); ++w) {
            const WorkloadSpec &ws = cfg_.workloads[w];
            const auto wl = workloads::makeWorkload(ws.name);
            const u64 elements =
                ws.elements
                    ? ws.elements
                    : wl->defaultElements(cfg_.devices[d].config.memory);
            for (u32 r = 0; r < ws.repeats * cfg_.repeats; ++r)
                tasks.push_back({d, w, r, elements, wl->rates()});
        }

    campaign::CellFns<RunTask, RunRecord> cell;
    cell.label = [&](const RunTask &t, RunRecord &rec) {
        rec.variant = cfg_.devices[t.device].name;
        rec.workload = cfg_.workloads[t.workload].name;
        rec.repeat = t.repeat;
        rec.seed = cfg_.workloads[t.workload].seed;
        rec.rates = t.rates;
    };
    cell.key = [&](const RunTask &t) {
        const WorkloadSpec &ws = cfg_.workloads[t.workload];
        return RunCache::key(cfg_.devices[t.device].config, ws.name,
                             t.elements, ws.seed, t.repeat);
    };
    cell.compute = [&](const RunTask &t, RunRecord &rec,
                       ScratchArena &arena) {
        const DeviceSpec &ds = cfg_.devices[t.device];
        const WorkloadSpec &ws = cfg_.workloads[t.workload];
        // Per-run device and workload: nothing is shared between
        // runs except the worker's scratch arena, so simulated
        // results cannot depend on threading.
        const auto w = workloads::makeWorkload(ws.name);
        runtime::DeviceConfig cfg = ds.config;
        cfg.arena = &arena;
        runtime::PlutoDevice dev(cfg);
        auto *tr = obs::tracer();
        if (tr)
            dev.scheduler().setTraceLimit(4096);
        static_cast<workloads::WorkloadResult &>(rec.out) =
            w->run(dev, t.elements, ws.seed);
        if (auto *sh = obs::shard()) {
            sh->inc("sim/runs");
            sh->add("sim/elements",
                    static_cast<double>(rec.out.elements));
            // Distribution, not just totals: per-run simulated
            // time folds exactly across workers and shards.
            sh->hist("sim/run_ns").add(rec.out.timeNs);
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
    };
    return campaign::runCampaign<RunCache>(tasks, opt, cfg_.name, cell,
                                           progress);
}

} // namespace pluto::sim
