/**
 * @file
 * ServiceCache: the serving counterpart of sim::RunCache — a
 * campaign::JsonlCache over the service-outcome fields declared here.
 *
 * One (device config, service spec, request mix) cell is identified
 * by a content key over a canonical descriptor (namespaced `serve/`);
 * outcomes share the campaign cache's on-disk discipline (append-only
 * JSONL, torn-line tolerance, last-wins load, version header), so
 * sharded service campaigns share one cache and a merge pass replays
 * every cell bit-identically.
 */

#ifndef PLUTO_SERVE_CACHE_HH
#define PLUTO_SERVE_CACHE_HH

#include <vector>

#include "campaign/cache.hh"
#include "serve/loadgen.hh"
#include "serve/metrics.hh"

namespace pluto::serve
{

// ---- Codec fields (see common/codec.hh) ----

template <typename V, RecordOf<TailGroup> G>
void
fields(V &v, G &g)
{
    v("tenant", g.tenant);
    v("class", g.cls);
    v("workload", g.workload);
    v("requests", g.requests);
    v("mean_ms", g.meanMs);
    v("phase_ms", g.phaseMs);
}

/** Stored positionally: [arrivals, completions, ..., p99_ms]. */
template <typename V, RecordOf<SeriesWindow> W>
void
fields(V &v, W &w)
{
    v("arrivals", w.arrivals);
    v("completions", w.completions);
    v("max_queue_depth", w.maxQueueDepth);
    v("max_in_flight", w.maxInFlight);
    v("busy_ns", w.busyNs);
    v("p50_ms", w.p50Ms);
    v("p99_ms", w.p99Ms);
}

template <typename V, RecordOf<TenantSummary> T>
void
fields(V &v, T &t)
{
    v("tenant", t.tenant);
    v("requests", t.requests);
    v("mean_ms", t.meanMs);
    v("p50_ms", t.p50Ms);
    v("p95_ms", t.p95Ms);
    v("p99_ms", t.p99Ms);
    v("p999_ms", t.p999Ms);
    v("max_ms", t.maxMs);
    v("slo_ms", t.sloMs);
    v("slo_attainment", t.sloAttainment);
    v("slo_burn_rate", t.sloBurnRate);
    v("slo_good", t.sloGood);
    v("slo_violations", t.sloViolations);
    v("phase_ms", t.phaseMs);
}

/** Every cached ServiceOutcome field; loopHostMs is diagnostic only
 *  and never stored. */
template <typename V, RecordOf<ServiceOutcome> O>
void
fields(V &v, O &out)
{
    v("requests", out.requests);
    v("batches", out.batches);
    v("mean_batch", out.meanBatch);
    v("makespan_ms", out.makespanMs);
    v("throughput_rps", out.throughputRps);
    v("mean_ms", out.meanMs);
    v("p50_ms", out.p50Ms);
    v("p95_ms", out.p95Ms);
    v("p99_ms", out.p99Ms);
    v("p999_ms", out.p999Ms);
    v("max_ms", out.maxMs);
    v("mean_queue_depth", out.meanQueueDepth);
    v("max_queue_depth", out.maxQueueDepth);
    v("utilization", out.utilization);
    v("pj_per_request", out.pjPerRequest);
    v("slo_ms", out.sloMs);
    v("slo_target", out.sloTarget);
    v("slo_attainment", out.sloAttainment);
    v("slo_burn_rate", out.sloBurnRate);
    v("tail_quantile", out.tailQuantile);
    v("tail_threshold_ms", out.tailThresholdMs);
    v("series_interval_ms", out.seriesIntervalMs);
    v("slo_good", out.sloGood);
    v("slo_violations", out.sloViolations);
    v("tail_requests", out.tailRequests);
    v("phase_ms", out.phaseMs);
    v("verified", out.verified);
    v("lat_hist", out.latHist);
    v("tail", out.tail);
    v.tuples("series", out.series);
    v("tenants", out.tenants);
}

/** Cache mode of service outcomes (see campaign/cache.hh). */
struct ServiceCacheCodec
{
    static constexpr const char *kKind = "serve";
};

/** Append-only JSONL outcome cache for one scenario's service runs. */
class ServiceCache
    : public campaign::JsonlCache<ServiceOutcome, ServiceCacheCodec>
{
  public:
    using JsonlCache::JsonlCache;

    /** @return the content key of one (variant, service, mix) cell.
     *  Every ServiceSpec field that shapes the outcome is keyed; the
     *  memo mode is not, because outcomes do not depend on it (a cell
     *  cached under memo = on replays under off/verify). */
    static std::string key(const runtime::DeviceConfig &cfg,
                           const sim::ServiceSpec &svc,
                           const std::vector<RequestClass> &mix);
};

} // namespace pluto::serve

#endif // PLUTO_SERVE_CACHE_HH
