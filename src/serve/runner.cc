/**
 * @file
 * Service-campaign execution on the campaign core (see runner.hh).
 */

#include "serve/runner.hh"

#include <mutex>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "serve/cache.hh"
#include "serve/simulator.hh"

namespace pluto::serve
{

namespace
{

/** Static description of one cell, expanded from the config. */
struct CellTask
{
    u32 device = 0;
    u32 service = 0;
};

} // namespace

bool
ServiceReport::allVerified() const
{
    for (const auto &r : runs)
        if (!r.out.verified)
            return false;
    return !runs.empty();
}

ServiceRunner::ServiceRunner(sim::SimConfig cfg)
    : cfg_(std::move(cfg))
{
}

ServiceReport
ServiceRunner::run(const sim::RunOptions &opt,
                   const Progress &progress) const
{
    const std::string oerr = opt.validate();
    if (!oerr.empty())
        fatal("ServiceRunner: %s", oerr.c_str());
    if (cfg_.services.empty())
        fatal("scenario '%s' declares no [service] sections",
              cfg_.name.c_str());
    // The [workload] entries are the request mix; an nn-only
    // scenario parses fine but cannot serve.
    if (cfg_.workloads.empty())
        fatal("scenario '%s' declares no [workload] sections "
              "(service mode needs a request mix)",
              cfg_.name.c_str());

    std::vector<CellTask> tasks;
    {
        u64 g = 0;
        for (u32 d = 0; d < cfg_.devices.size(); ++d)
            for (u32 s = 0; s < cfg_.services.size(); ++s, ++g)
                if (opt.inShard(g))
                    tasks.push_back({d, s});
    }

    std::optional<ServiceCache> cache;
    if (!opt.cacheDir.empty()) {
        cache.emplace(opt.cacheDir, cfg_.name);
        const std::string cerr = cache->load();
        if (!cerr.empty())
            fatal("service cache: %s", cerr.c_str());
    }

    // Calibration depends only on (variant config, mix), so every
    // service cell of one variant shares it. Computed lazily — a
    // fully cached variant never calibrates at all.
    struct VariantCal
    {
        std::once_flag once;
        Calibration cal;
    };
    std::vector<VariantCal> cals(cfg_.devices.size());

    ServiceReport report;
    const campaign::Stats stats = campaign::runCampaign(
        tasks.size(), opt, report.runs,
        [&](std::size_t i, ServiceRunRecord &rec,
            ScratchArena &arena) {
            const CellTask &t = tasks[i];
            sim::DeviceSpec ds = cfg_.devices[t.device];
            ds.config.arena = &arena;
            const sim::ServiceSpec &svc = cfg_.services[t.service];
            const auto mix = buildMix(cfg_, ds.config);

            rec.variant = ds.name;
            rec.service = svc.name;
            rec.policy = sim::batchPolicyName(svc.policy);
            rec.mode = svc.closedLoop ? "closed" : "open";
            rec.devices = svc.devices;
            rec.ratePerSec = svc.closedLoop ? 0.0 : svc.ratePerSec;
            rec.clients = svc.closedLoop ? svc.clients : 0;

            std::string key;
            std::optional<ServiceOutcome> hit;
            if (cache) {
                key = ServiceCache::key(ds.config, svc, mix);
                hit = cache->lookup(key);
            }
            if (hit) {
                rec.out = *hit;
                rec.fromCache = true;
                return true;
            }
            VariantCal &vc = cals[t.device];
            std::call_once(vc.once, [&]() {
                vc.cal =
                    ServeSimulator::calibrateAll(ds.config, mix);
                if (auto *sh = obs::shard())
                    sh->inc("serve/calibrations");
            });
            const ServeSimulator simulator(ds, svc, mix);
            rec.out = simulator.run(&vc.cal);
            if (cache) {
                const std::string err = cache->append(key, rec.out);
                if (!err.empty())
                    warn("service cache: %s", err.c_str());
            }
            return false;
        },
        progress);

    report.wallMs = stats.wallMs;
    report.cacheHits = stats.cacheHits;
    report.cacheMisses = stats.cacheMisses;
    return report;
}

} // namespace pluto::serve
