/**
 * @file
 * ServiceCache: the serving counterpart of sim::RunCache — a
 * campaign::JsonlCache with the serve codec.
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

/** Cache codec of service outcomes (see campaign/cache.hh). */
struct ServiceCacheCodec
{
    static constexpr const char *kKind = "serve";
    static std::string encodeBody(const ServiceOutcome &out);
    static bool decode(const JsonValue &obj, ServiceOutcome &out);
    static void encodeBinary(const ServiceOutcome &out,
                             campaign::BinWriter &w);
    static bool decodeBinary(campaign::BinReader &r,
                             ServiceOutcome &out);
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
