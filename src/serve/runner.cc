/**
 * @file
 * Service-campaign execution on the campaign core (see runner.hh).
 */

#include "serve/runner.hh"

#include <atomic>
#include <mutex>
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

/**
 * The campaign's spare threads as tokens: an open-loop cell that
 * takes one draws its arrivals on a producer thread, and returns the
 * token when it ends (also by exception).
 */
class SpareThread
{
  public:
    SpareThread(std::atomic<u32> &free, bool wanted) : free_(free)
    {
        u32 n = wanted ? free_.load() : 0;
        while (n > 0 && !free_.compare_exchange_weak(n, n - 1)) {
        }
        held_ = n > 0;
    }
    ~SpareThread()
    {
        if (held_)
            free_.fetch_add(1);
    }
    SpareThread(const SpareThread &) = delete;
    SpareThread &operator=(const SpareThread &) = delete;

    ArrivalDriver arrivals() const
    {
        return held_ ? ArrivalDriver::Thread : ArrivalDriver::Inline;
    }

  private:
    std::atomic<u32> &free_;
    bool held_ = false;
};

} // namespace

ServiceRunner::ServiceRunner(sim::SimConfig cfg)
    : cfg_(std::move(cfg))
{
}

ServiceReport
ServiceRunner::run(const campaign::RunOptions &opt,
                   const Progress &progress) const
{
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
    for (u32 d = 0; d < cfg_.devices.size(); ++d)
        for (u32 s = 0; s < cfg_.services.size(); ++s)
            tasks.push_back({d, s});

    // The request mix and its calibration depend only on the variant
    // config, so every service cell of one variant shares them.
    // Calibration is lazy — a fully cached variant never calibrates.
    struct Variant
    {
        std::vector<RequestClass> mix;
        std::once_flag once;
        Calibration cal;
    };
    std::vector<Variant> variants(cfg_.devices.size());
    for (u32 d = 0; d < cfg_.devices.size(); ++d)
        variants[d].mix = buildMix(cfg_, cfg_.devices[d].config);

    // Threads the --threads budget leaves beyond one per cell running
    // at once go to cells as arrival producers.
    std::atomic<u32> spare{0};
    campaign::CellFns<CellTask, ServiceRunRecord> cell;
    cell.spare = [&](u32 n) { spare.store(n); };
    cell.label = [&](const CellTask &t, ServiceRunRecord &rec) {
        const sim::ServiceSpec &svc = cfg_.services[t.service];
        rec.variant = cfg_.devices[t.device].name;
        rec.service = svc.name;
        rec.policy = sim::batchPolicyName(svc.policy);
        rec.mode = svc.closedLoop ? "closed" : "open";
        rec.devices = svc.devices;
        rec.ratePerSec = svc.closedLoop ? 0.0 : svc.ratePerSec;
        rec.clients = svc.closedLoop ? svc.clients : 0;
    };
    cell.key = [&](const CellTask &t) {
        return ServiceCache::key(cfg_.devices[t.device].config,
                                 cfg_.services[t.service],
                                 variants[t.device].mix);
    };
    cell.compute = [&](const CellTask &t, ServiceRunRecord &rec,
                       ScratchArena &arena) {
        sim::DeviceSpec ds = cfg_.devices[t.device];
        ds.config.arena = &arena;
        Variant &v = variants[t.device];
        std::call_once(v.once, [&]() {
            v.cal = ServeSimulator::calibrateAll(ds.config, v.mix);
            if (auto *sh = obs::shard())
                sh->inc("serve/calibrations");
        });
        const sim::ServiceSpec &svc = cfg_.services[t.service];
        const ServeSimulator simulator(ds, svc, v.mix);
        const SpareThread producer(spare, !svc.closedLoop);
        rec.out = simulator.run(&v.cal, nullptr, producer.arrivals());
    };
    return campaign::runCampaign<ServiceCache>(tasks, opt, cfg_.name,
                                               cell, progress);
}

} // namespace pluto::serve
