/**
 * @file
 * RunCache: the batch scenario engine's content-addressed run cache —
 * a campaign::JsonlCache with the sim codec.
 *
 * Every (device config, workload, elements, seed, repeat) run is
 * identified by a content key over a canonical descriptor string
 * (namespaced `sim/`, see campaign/cache.hh for the shared on-disk
 * discipline: append-only JSONL, torn-line tolerance, last-wins
 * load, version header). Simulated results are deterministic, so
 * replaying a cache hit is bit-identical to recomputation.
 */

#ifndef PLUTO_SIM_CACHE_HH
#define PLUTO_SIM_CACHE_HH

#include "campaign/cache.hh"
#include "runtime/device.hh"
#include "workloads/workload.hh"

namespace pluto::sim
{

/** Outcome of one batch run: the simulated result plus the host
 *  wall-clock of the run that computed it (the cached part of a
 *  RunRecord). */
struct RunOutcome : workloads::WorkloadResult
{
    /** Host wall-clock of the run that computed the result, ms. */
    double wallMs = 0.0;
};

/** Codec fields of a RunOutcome (see common/codec.hh). */
template <typename V, RecordOf<RunOutcome> R>
void
fields(V &v, R &run)
{
    v("elements", run.elements);
    v("time_ns", run.timeNs);
    v("energy_pj", run.energyPj);
    v("host_ns", run.hostNs);
    v("verified", run.verified);
    v("wall_ms", run.wallMs);
}

/** Cache mode of batch-run outcomes (see campaign/cache.hh). */
struct RunCacheCodec
{
    static constexpr const char *kKind = "sim";
};

/** Append-only JSONL result cache for one scenario's batch runs. */
class RunCache
    : public campaign::JsonlCache<RunOutcome, RunCacheCodec>
{
  public:
    using JsonlCache::JsonlCache;

    /**
     * @return the content key of one run. Everything that can change
     * a simulated result participates: the full device
     * configuration, the workload name, the resolved element count,
     * the input seed and the repeat index, plus a schema version.
     */
    static std::string key(const runtime::DeviceConfig &cfg,
                           const std::string &workload, u64 elements,
                           u64 seed, u32 repeat);
};

} // namespace pluto::sim

#endif // PLUTO_SIM_CACHE_HH
