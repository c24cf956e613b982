/**
 * @file
 * Service-outcome cache codec (see cache.hh).
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

/** The scalar double fields of a ServiceOutcome, in JSON order. */
struct Field
{
    const char *name;
    double ServiceOutcome::*member;
};

constexpr Field kFields[] = {
    {"mean_batch", &ServiceOutcome::meanBatch},
    {"makespan_ms", &ServiceOutcome::makespanMs},
    {"throughput_rps", &ServiceOutcome::throughputRps},
    {"mean_ms", &ServiceOutcome::meanMs},
    {"p50_ms", &ServiceOutcome::p50Ms},
    {"p95_ms", &ServiceOutcome::p95Ms},
    {"p99_ms", &ServiceOutcome::p99Ms},
    {"p999_ms", &ServiceOutcome::p999Ms},
    {"max_ms", &ServiceOutcome::maxMs},
    {"mean_queue_depth", &ServiceOutcome::meanQueueDepth},
    {"max_queue_depth", &ServiceOutcome::maxQueueDepth},
    {"utilization", &ServiceOutcome::utilization},
    {"pj_per_request", &ServiceOutcome::pjPerRequest},
    {"slo_ms", &ServiceOutcome::sloMs},
    {"slo_target", &ServiceOutcome::sloTarget},
    {"slo_attainment", &ServiceOutcome::sloAttainment},
    {"slo_burn_rate", &ServiceOutcome::sloBurnRate},
    {"tail_quantile", &ServiceOutcome::tailQuantile},
    {"tail_threshold_ms", &ServiceOutcome::tailThresholdMs},
    {"series_interval_ms", &ServiceOutcome::seriesIntervalMs},
};

/** The scalar double fields of a TenantSummary, in JSON order. */
struct TenantField
{
    const char *name;
    double TenantSummary::*member;
};

constexpr TenantField kTenantFields[] = {
    {"mean_ms", &TenantSummary::meanMs},
    {"p50_ms", &TenantSummary::p50Ms},
    {"p95_ms", &TenantSummary::p95Ms},
    {"p99_ms", &TenantSummary::p99Ms},
    {"p999_ms", &TenantSummary::p999Ms},
    {"max_ms", &TenantSummary::maxMs},
    {"slo_ms", &TenantSummary::sloMs},
    {"slo_attainment", &TenantSummary::sloAttainment},
    {"slo_burn_rate", &TenantSummary::sloBurnRate},
};

/** Append a JSON array of the kPhaseCount phase sums. */
void
encodePhases(std::string &body, const char *key,
             const double (&phaseMs)[kPhaseCount])
{
    body += ",\"" + std::string(key) + "\":[";
    for (u32 i = 0; i < kPhaseCount; ++i) {
        if (i)
            body += ",";
        body += fmtDoubleExact(phaseMs[i]);
    }
    body += "]";
}

bool
decodePhases(const JsonValue &obj, const char *key,
             double (&phaseMs)[kPhaseCount])
{
    const JsonValue *arr = obj.find(key);
    if (!arr || !arr->isArray() || arr->size() != kPhaseCount)
        return false;
    for (u32 i = 0; i < kPhaseCount; ++i) {
        if (!arr->at(i).isNumber())
            return false;
        phaseMs[i] = arr->at(i).asNumber();
    }
    return true;
}

/** Minimal JSON string escape (workload names are registry names). */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

std::string
ServiceCache::key(const runtime::DeviceConfig &cfg,
                  const sim::ServiceSpec &svc,
                  const std::vector<RequestClass> &mix)
{
    std::ostringstream d;
    d << 'v' << kServeSchema << '|' << deviceDescriptor(cfg) << '|'
      << svc.closedLoop << ',' << svc.uniformArrivals << ','
      << fmtDoubleExact(svc.ratePerSec) << ','
      << fmtDoubleExact(svc.durationMs) << ',' << svc.clients << ','
      << fmtDoubleExact(svc.thinkMs) << ','
      << sim::batchPolicyName(svc.policy) << ',' << svc.batch << ','
      << fmtDoubleExact(svc.windowMs) << ',' << svc.devices << ','
      << svc.lanes << ',' << svc.seed << ','
      << fmtDoubleExact(svc.sloMs) << ','
      << fmtDoubleExact(svc.sloTarget) << ','
      << fmtDoubleExact(svc.tailQuantile) << ','
      << fmtDoubleExact(svc.timeseriesMs) << ','
      << fmtDoubleExact(svc.tenantSkew);
    for (const auto &c : mix)
        d << '|' << c.workload << ',' << c.elements << ',' << c.seed
          << ',' << c.tenant << ',' << fmtDoubleExact(c.weight)
          << ',' << fmtDoubleExact(c.sloMs);
    return keyFor(d.str());
}

std::string
ServiceCacheCodec::encodeBody(const ServiceOutcome &out)
{
    // Hand-formatted (like the run codec) so doubles round-trip
    // exactly.
    std::string body = ",\"requests\":" + std::to_string(out.requests);
    body += ",\"batches\":" + std::to_string(out.batches);
    for (const auto &f : kFields)
        body += ",\"" + std::string(f.name) +
                "\":" + fmtDoubleExact(out.*(f.member));
    body += ",\"slo_good\":" + std::to_string(out.sloGood);
    body +=
        ",\"slo_violations\":" + std::to_string(out.sloViolations);
    body += ",\"tail_requests\":" + std::to_string(out.tailRequests);
    encodePhases(body, "phase_ms", out.phaseMs);
    body += std::string(",\"verified\":") +
            (out.verified ? "true" : "false");
    body += ",\"lat_hist\":" + out.latHist.encodeJson();
    body += ",\"tail\":[";
    for (std::size_t i = 0; i < out.tail.size(); ++i) {
        const TailGroup &g = out.tail[i];
        if (i)
            body += ",";
        body += "{\"tenant\":" + std::to_string(g.tenant);
        body += ",\"class\":" + std::to_string(g.cls);
        body += ",\"workload\":\"" + escape(g.workload) + "\"";
        body += ",\"requests\":" + std::to_string(g.requests);
        body += ",\"mean_ms\":" + fmtDoubleExact(g.meanMs);
        encodePhases(body, "phase_ms", g.phaseMs);
        body += "}";
    }
    body += "],\"series\":[";
    for (std::size_t i = 0; i < out.series.size(); ++i) {
        const SeriesWindow &w = out.series[i];
        if (i)
            body += ",";
        body += "[" + std::to_string(w.arrivals);
        body += "," + std::to_string(w.completions);
        body += "," + fmtDoubleExact(w.maxQueueDepth);
        body += "," + fmtDoubleExact(w.maxInFlight);
        body += "," + fmtDoubleExact(w.busyNs);
        body += "," + fmtDoubleExact(w.p50Ms);
        body += "," + fmtDoubleExact(w.p99Ms) + "]";
    }
    body += "],\"tenants\":[";
    for (std::size_t i = 0; i < out.tenants.size(); ++i) {
        const TenantSummary &t = out.tenants[i];
        if (i)
            body += ",";
        body += "{\"tenant\":" + std::to_string(t.tenant);
        body += ",\"requests\":" + std::to_string(t.requests);
        for (const auto &f : kTenantFields)
            body += ",\"" + std::string(f.name) +
                    "\":" + fmtDoubleExact(t.*(f.member));
        body += ",\"slo_good\":" + std::to_string(t.sloGood);
        body += ",\"slo_violations\":" +
                std::to_string(t.sloViolations);
        encodePhases(body, "phase_ms", t.phaseMs);
        body += "}";
    }
    body += "]";
    return body;
}

bool
ServiceCacheCodec::decode(const JsonValue &obj, ServiceOutcome &out)
{
    const JsonValue *requests = obj.find("requests");
    const JsonValue *batches = obj.find("batches");
    const JsonValue *verified = obj.find("verified");
    const JsonValue *tenants = obj.find("tenants");
    if (!requests || !requests->isNumber() || !batches ||
        !batches->isNumber() || !verified || !verified->isBool() ||
        !tenants || !tenants->isArray())
        return false;
    out.requests = static_cast<u64>(requests->asNumber());
    out.batches = static_cast<u64>(batches->asNumber());
    out.verified = verified->asBool();
    for (const auto &f : kFields) {
        const JsonValue *x = obj.find(f.name);
        if (!x || !x->isNumber())
            return false;
        out.*(f.member) = x->asNumber();
    }
    const JsonValue *good = obj.find("slo_good");
    const JsonValue *viol = obj.find("slo_violations");
    const JsonValue *tailReq = obj.find("tail_requests");
    if (!good || !good->isNumber() || !viol || !viol->isNumber() ||
        !tailReq || !tailReq->isNumber())
        return false;
    out.sloGood = static_cast<u64>(good->asNumber());
    out.sloViolations = static_cast<u64>(viol->asNumber());
    out.tailRequests = static_cast<u64>(tailReq->asNumber());
    if (!decodePhases(obj, "phase_ms", out.phaseMs))
        return false;

    const JsonValue *hist = obj.find("lat_hist");
    if (!hist || !out.latHist.decodeJson(*hist))
        return false;

    const JsonValue *tail = obj.find("tail");
    if (!tail || !tail->isArray())
        return false;
    for (std::size_t i = 0; i < tail->size(); ++i) {
        const JsonValue &gv = tail->at(i);
        const JsonValue *tenant = gv.find("tenant");
        const JsonValue *cls = gv.find("class");
        const JsonValue *workload = gv.find("workload");
        const JsonValue *greq = gv.find("requests");
        const JsonValue *mean = gv.find("mean_ms");
        if (!gv.isObject() || !tenant || !tenant->isNumber() ||
            !cls || !cls->isNumber() || !workload ||
            !workload->isString() || !greq || !greq->isNumber() ||
            !mean || !mean->isNumber())
            return false;
        TailGroup g;
        g.tenant = static_cast<u32>(tenant->asNumber());
        g.cls = static_cast<u32>(cls->asNumber());
        g.workload = workload->asString();
        g.requests = static_cast<u64>(greq->asNumber());
        g.meanMs = mean->asNumber();
        if (!decodePhases(gv, "phase_ms", g.phaseMs))
            return false;
        out.tail.push_back(std::move(g));
    }

    const JsonValue *series = obj.find("series");
    if (!series || !series->isArray())
        return false;
    for (std::size_t i = 0; i < series->size(); ++i) {
        const JsonValue &wv = series->at(i);
        if (!wv.isArray() || wv.size() != 7)
            return false;
        for (std::size_t k = 0; k < 7; ++k)
            if (!wv.at(k).isNumber())
                return false;
        SeriesWindow w;
        w.arrivals = static_cast<u64>(wv.at(0).asNumber());
        w.completions = static_cast<u64>(wv.at(1).asNumber());
        w.maxQueueDepth = wv.at(2).asNumber();
        w.maxInFlight = wv.at(3).asNumber();
        w.busyNs = wv.at(4).asNumber();
        w.p50Ms = wv.at(5).asNumber();
        w.p99Ms = wv.at(6).asNumber();
        out.series.push_back(w);
    }

    for (std::size_t i = 0; i < tenants->size(); ++i) {
        const JsonValue &tv = tenants->at(i);
        const JsonValue *tenant = tv.find("tenant");
        const JsonValue *treq = tv.find("requests");
        const JsonValue *tgood = tv.find("slo_good");
        const JsonValue *tviol = tv.find("slo_violations");
        if (!tv.isObject() || !tenant || !tenant->isNumber() ||
            !treq || !treq->isNumber() || !tgood ||
            !tgood->isNumber() || !tviol || !tviol->isNumber())
            return false;
        TenantSummary t;
        t.tenant = static_cast<u32>(tenant->asNumber());
        t.requests = static_cast<u64>(treq->asNumber());
        t.sloGood = static_cast<u64>(tgood->asNumber());
        t.sloViolations = static_cast<u64>(tviol->asNumber());
        for (const auto &f : kTenantFields) {
            const JsonValue *x = tv.find(f.name);
            if (!x || !x->isNumber())
                return false;
            t.*(f.member) = x->asNumber();
        }
        if (!decodePhases(tv, "phase_ms", t.phaseMs))
            return false;
        out.tenants.push_back(t);
    }
    return true;
}

void
ServiceCacheCodec::encodeBinary(const ServiceOutcome &out,
                                campaign::BinWriter &w)
{
    // Same schema as the JSONL body: kFields/kTenantFields order is
    // the wire order, so the two encodings stay field-for-field
    // parallel.
    w.putU64(out.requests);
    w.putU64(out.batches);
    for (const auto &f : kFields)
        w.putF64(out.*(f.member));
    w.putU64(out.sloGood);
    w.putU64(out.sloViolations);
    w.putU64(out.tailRequests);
    for (u32 i = 0; i < kPhaseCount; ++i)
        w.putF64(out.phaseMs[i]);
    w.putBool(out.verified);

    w.putU64(out.latHist.count());
    w.putF64(out.latHist.sum());
    w.putF64(out.latHist.min());
    w.putF64(out.latHist.max());
    w.putU32(static_cast<u32>(out.latHist.buckets().size()));
    for (const auto &[idx, n] : out.latHist.buckets()) {
        w.putU32(static_cast<u32>(idx));
        w.putU64(n);
    }

    w.putU32(static_cast<u32>(out.tail.size()));
    for (const TailGroup &g : out.tail) {
        w.putU32(g.tenant);
        w.putU32(g.cls);
        w.putString(g.workload);
        w.putU64(g.requests);
        w.putF64(g.meanMs);
        for (u32 i = 0; i < kPhaseCount; ++i)
            w.putF64(g.phaseMs[i]);
    }

    w.putU32(static_cast<u32>(out.series.size()));
    for (const SeriesWindow &win : out.series) {
        w.putU64(win.arrivals);
        w.putU64(win.completions);
        w.putF64(win.maxQueueDepth);
        w.putF64(win.maxInFlight);
        w.putF64(win.busyNs);
        w.putF64(win.p50Ms);
        w.putF64(win.p99Ms);
    }

    w.putU32(static_cast<u32>(out.tenants.size()));
    for (const TenantSummary &t : out.tenants) {
        w.putU32(t.tenant);
        w.putU64(t.requests);
        for (const auto &f : kTenantFields)
            w.putF64(t.*(f.member));
        w.putU64(t.sloGood);
        w.putU64(t.sloViolations);
        for (u32 i = 0; i < kPhaseCount; ++i)
            w.putF64(t.phaseMs[i]);
    }
}

bool
ServiceCacheCodec::decodeBinary(campaign::BinReader &r,
                                ServiceOutcome &out)
{
    if (!r.getU64(out.requests) || !r.getU64(out.batches))
        return false;
    for (const auto &f : kFields)
        if (!r.getF64(out.*(f.member)))
            return false;
    if (!r.getU64(out.sloGood) || !r.getU64(out.sloViolations) ||
        !r.getU64(out.tailRequests))
        return false;
    for (u32 i = 0; i < kPhaseCount; ++i)
        if (!r.getF64(out.phaseMs[i]))
            return false;
    if (!r.getBool(out.verified))
        return false;

    u64 histCount;
    double histSum, histMin, histMax;
    u32 buckets;
    if (!r.getU64(histCount) || !r.getF64(histSum) ||
        !r.getF64(histMin) || !r.getF64(histMax) ||
        !r.getU32(buckets))
        return false;
    u64 restored = 0;
    for (u32 i = 0; i < buckets; ++i) {
        u32 idx;
        u64 n;
        if (!r.getU32(idx) || !r.getU64(n))
            return false;
        out.latHist.restoreBucket(static_cast<i32>(idx), n);
        restored += n;
    }
    if (restored != histCount)
        return false;
    if (histCount > 0)
        out.latHist.restoreDigest(histSum, histMin, histMax);

    u32 count;
    if (!r.getU32(count))
        return false;
    for (u32 i = 0; i < count; ++i) {
        TailGroup g;
        if (!r.getU32(g.tenant) || !r.getU32(g.cls) ||
            !r.getString(g.workload) || !r.getU64(g.requests) ||
            !r.getF64(g.meanMs))
            return false;
        for (u32 p = 0; p < kPhaseCount; ++p)
            if (!r.getF64(g.phaseMs[p]))
                return false;
        out.tail.push_back(std::move(g));
    }

    if (!r.getU32(count))
        return false;
    for (u32 i = 0; i < count; ++i) {
        SeriesWindow w;
        if (!r.getU64(w.arrivals) || !r.getU64(w.completions) ||
            !r.getF64(w.maxQueueDepth) ||
            !r.getF64(w.maxInFlight) || !r.getF64(w.busyNs) ||
            !r.getF64(w.p50Ms) || !r.getF64(w.p99Ms))
            return false;
        out.series.push_back(w);
    }

    if (!r.getU32(count))
        return false;
    for (u32 i = 0; i < count; ++i) {
        TenantSummary t;
        if (!r.getU32(t.tenant) || !r.getU64(t.requests))
            return false;
        for (const auto &f : kTenantFields)
            if (!r.getF64(t.*(f.member)))
                return false;
        if (!r.getU64(t.sloGood) || !r.getU64(t.sloViolations))
            return false;
        for (u32 p = 0; p < kPhaseCount; ++p)
            if (!r.getF64(t.phaseMs[p]))
                return false;
        out.tenants.push_back(t);
    }
    return r.atEnd();
}

} // namespace pluto::serve
