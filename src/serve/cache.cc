/**
 * @file
 * Service-cell cache content key (see cache.hh).
 */

#include "serve/cache.hh"

#include <sstream>

namespace pluto::serve
{

namespace
{

/** Bump when the serving model changes cached semantics.
 *  v3: tail-latency attribution (phase sums, SLO tracking, tail
 *  groups, latency histogram, virtual-time series). */
// v4: batches charge from a canonical per-batch scheduler epoch
// (batch-signature memoization), which moves outcomes by FP ulps
// and drops inter-batch tFAW carry-in relative to v3.
// v5: histogram-only quantiles (pool-wide p50..p999 from the latency
// histogram, p99_p2_ms/p999_p2_ms dropped), bucket-resolution tail
// threshold, and the memo mode no longer keys a cell.
constexpr u32 kServeSchema = 5;

} // namespace

std::string
ServiceCache::key(const runtime::DeviceConfig &cfg,
                  const sim::ServiceSpec &svc,
                  const std::vector<RequestClass> &mix)
{
    std::ostringstream d;
    d << 'v' << kServeSchema << '|' << deviceDescriptor(cfg) << '|'
      << sim::keyedFields(sim::kServiceFields, svc, ',');
    for (const auto &c : mix) {
        sim::WorkloadSpec w;
        w.elements = c.elements;
        w.seed = c.seed;
        w.tenant = c.tenant;
        w.weight = c.weight;
        w.sloMs = c.sloMs;
        d << '|' << c.workload << ','
          << sim::keyedFields(sim::kWorkloadFields, w, ',');
    }
    return keyFor(d.str());
}

} // namespace pluto::serve
