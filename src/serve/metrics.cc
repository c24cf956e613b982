/**
 * @file
 * Service metric folding and report rendering (see metrics.hh).
 */

#include "serve/metrics.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/emit.hh"
#include "common/logging.hh"

namespace pluto::serve
{

namespace
{

/** classGroup_ entry of a class with no completion yet. */
constexpr u32 kNoGroup = 0xffffffffu;

/** Column slots of the internal TimeSeries (declaration order). */
enum SeriesColId : std::size_t
{
    kColArrivals = 0,
    kColCompletions,
    kColQueueDepth,
    kColInflight,
    kColBusyNs,
    kColLatencyMs,
};

std::vector<obs::SeriesCol>
seriesSchema()
{
    return {{"arrivals", obs::SeriesAgg::Sum},
            {"completions", obs::SeriesAgg::Sum},
            {"queue_depth", obs::SeriesAgg::Max},
            {"inflight", obs::SeriesAgg::Max},
            {"busy_ns", obs::SeriesAgg::Sum},
            {"latency_ms", obs::SeriesAgg::Hist}};
}

void
setLatency(JsonValue &row, const char *prefix, double mean,
           double p50, double p95, double p99, double p999,
           double max)
{
    row.set(std::string(prefix) + "mean_ms", mean);
    row.set(std::string(prefix) + "p50_ms", p50);
    row.set(std::string(prefix) + "p95_ms", p95);
    row.set(std::string(prefix) + "p99_ms", p99);
    row.set(std::string(prefix) + "p999_ms", p999);
    row.set(std::string(prefix) + "max_ms", max);
}

void
setPhases(JsonValue &row, const double (&phaseMs)[kPhaseCount])
{
    JsonValue &ph = row.set("phase_ms", JsonValue::object());
    for (u32 i = 0; i < kPhaseCount; ++i)
        ph.set(phaseName(i), phaseMs[i]);
}

void
setSlo(JsonValue &row, double sloMs, double target, u64 good,
       u64 violations, double attainment, double burn)
{
    JsonValue &slo = row.set("slo", JsonValue::object());
    slo.set("slo_ms", sloMs);
    slo.set("target", target);
    slo.set("good", static_cast<unsigned long long>(good));
    slo.set("violations",
            static_cast<unsigned long long>(violations));
    slo.set("attainment", attainment);
    slo.set("burn_rate", burn);
}

/** attainment over tracked requests; 0 when nothing was tracked. */
double
attainmentOf(u64 good, u64 violations)
{
    const u64 tracked = good + violations;
    return tracked ? static_cast<double>(good) /
                         static_cast<double>(tracked)
                   : 0.0;
}

/** Error-budget burn: 1.0 = exactly at target, >1 = burning. */
double
burnOf(u64 good, u64 violations, double target)
{
    if (good + violations == 0 || !(target < 1.0))
        return 0.0;
    return (1.0 - attainmentOf(good, violations)) / (1.0 - target);
}

} // namespace

const char *
phaseName(u32 phase)
{
    switch (static_cast<Phase>(phase)) {
      case Phase::QueueWait:
        return "queue_wait";
      case Phase::BatchWait:
        return "batch_wait";
      case Phase::LutReload:
        return "lut_reload";
      case Phase::TfawStall:
        return "tfaw_stall";
      case Phase::Exec:
        return "exec";
    }
    return "unknown";
}

u32
TailGroup::dominantPhase() const
{
    u32 best = 0;
    for (u32 i = 1; i < kPhaseCount; ++i)
        if (phaseMs[i] > phaseMs[best])
            best = i;
    return best;
}

MetricsConfig
MetricsConfig::from(const sim::ServiceSpec &spec,
                    const std::vector<RequestClass> &mix)
{
    MetricsConfig c;
    c.sloMs = spec.sloMs;
    c.sloTarget = spec.sloTarget;
    c.tailQuantile = spec.tailQuantile;
    c.seriesIntervalMs = spec.timeseriesMs;
    c.classSloMs.reserve(mix.size());
    c.classNames.reserve(mix.size());
    for (const auto &m : mix) {
        c.classSloMs.push_back(m.sloMs > 0.0 ? m.sloMs : spec.sloMs);
        c.classNames.push_back(m.workload);
    }
    return c;
}

ServiceMetrics::ServiceMetrics(MetricsConfig cfg)
    : cfg_(std::move(cfg)),
      classGroup_(cfg_.classNames.size(), kNoGroup),
      series_(std::max(cfg_.seriesIntervalMs, 1e-6) * 1e6,
              seriesSchema())
{
}

void
ServiceMetrics::onArrival(TimeNs at)
{
    series_.record(at, kColArrivals, 1.0);
}

void
ServiceMetrics::onQueueDepth(TimeNs at, u64 depth)
{
    const double d = static_cast<double>(depth);
    queueDepthSum_ += d;
    ++queueDepthSamples_;
    queueDepthMax_ = std::max(queueDepthMax_, d);
    series_.record(at, kColQueueDepth, d);
}

void
ServiceMetrics::onBatch(TimeNs at, u32 size, u32 busyDevices,
                        TimeNs serviceNs)
{
    ++batches_;
    batchedRequests_ += size;
    series_.record(at, kColInflight,
                   static_cast<double>(busyDevices));
    series_.recordSpan(at, at + serviceNs, kColBusyNs, serviceNs);
}

u32
ServiceMetrics::groupOf(const Request &r)
{
    if (r.cls < classGroup_.size()) {
        const u32 g = classGroup_[r.cls];
        if (g != kNoGroup && groups_[g].tenant == r.tenant)
            return g;
    }
    u32 g = 0;
    while (g < groups_.size() &&
           (groups_[g].tenant != r.tenant || groups_[g].cls != r.cls))
        ++g;
    if (g == groups_.size()) {
        GroupState grp;
        grp.tenant = r.tenant;
        grp.cls = r.cls;
        while (grp.slot < tenants_.size() &&
               tenants_[grp.slot].tenant != r.tenant)
            ++grp.slot;
        if (grp.slot == tenants_.size()) {
            tenants_.emplace_back();
            tenants_.back().tenant = r.tenant;
        }
        groups_.push_back(std::move(grp));
    }
    if (r.cls < classGroup_.size())
        classGroup_[r.cls] = g;
    return g;
}

void
ServiceMetrics::onComplete(const Request &r, TimeNs finishNs,
                           const PhaseBreakdownNs &ph)
{
    const double ms = (finishNs - r.arriveNs) * 1e-6;
    latHist_.add(ms);
    const u32 gi = groupOf(r);
    GroupState &grp = groups_[gi];
    TenantState &t = tenants_[grp.slot];
    t.hist.add(ms);
    BucketSums &b = grp.buckets.at(obs::Histogram::bucketOf(ms));
    ++b.requests;
    b.latMs += ms;
    for (u32 i = 0; i < kPhaseCount; ++i) {
        const double phMs = ph.ns[i] * 1e-6;
        phaseMs_[i] += phMs;
        t.phaseMs[i] += phMs;
        b.phaseMs[i] += phMs;
    }

    const double sloMs = r.cls < cfg_.classSloMs.size()
                             ? cfg_.classSloMs[r.cls]
                             : cfg_.sloMs;
    if (sloMs > 0.0) {
        // The tightest SLO among a tenant's classes is the one
        // reported: mixed-SLO tenants show the strictest bound.
        t.sloMs = t.sloMs > 0.0 ? std::min(t.sloMs, sloMs) : sloMs;
        const bool good = ms <= sloMs;
        t.sloGood += good;
        t.sloViolations += !good;
        sloGood_ += good;
        sloViolations_ += !good;
    }

    const std::size_t w = series_.window(finishNs);
    series_.add(w, kColCompletions, 1.0);
    series_.add(w, kColLatencyMs, ms);
    lastFinishNs_ = std::max(lastFinishNs_, finishNs);
}

ServiceOutcome
ServiceMetrics::finish(u32 devices, TimeNs busyNs, double energyPj,
                       bool verified) const
{
    ServiceOutcome out;
    out.requests = latHist_.count();
    out.batches = batches_;
    out.meanBatch =
        batches_ ? static_cast<double>(batchedRequests_) /
                       static_cast<double>(batches_)
                 : 0.0;
    out.makespanMs = lastFinishNs_ * 1e-6;
    out.throughputRps = lastFinishNs_ > 0.0
                            ? static_cast<double>(out.requests) /
                                  (lastFinishNs_ * 1e-9)
                            : 0.0;
    out.meanMs = latHist_.mean();
    out.p50Ms = latHist_.quantile(0.50);
    out.p95Ms = latHist_.quantile(0.95);
    out.p99Ms = latHist_.quantile(0.99);
    out.p999Ms = latHist_.quantile(0.999);
    out.maxMs = latHist_.max();
    out.meanQueueDepth =
        queueDepthSamples_
            ? queueDepthSum_ / static_cast<double>(queueDepthSamples_)
            : 0.0;
    out.maxQueueDepth = queueDepthMax_;
    out.utilization =
        lastFinishNs_ > 0.0 && devices > 0
            ? busyNs / (static_cast<double>(devices) * lastFinishNs_)
            : 0.0;
    out.pjPerRequest =
        out.requests ? energyPj / static_cast<double>(out.requests)
                     : 0.0;
    out.verified = verified;
    out.latHist = latHist_;
    out.sloMs = cfg_.sloMs;
    out.sloTarget = cfg_.sloTarget;
    out.tailQuantile = cfg_.tailQuantile;
    out.seriesIntervalMs = cfg_.seriesIntervalMs;
    std::copy(std::begin(phaseMs_), std::end(phaseMs_), out.phaseMs);
    out.sloGood = sloGood_;
    out.sloViolations = sloViolations_;
    out.sloAttainment = attainmentOf(out.sloGood, out.sloViolations);
    out.sloBurnRate =
        burnOf(out.sloGood, out.sloViolations, cfg_.sloTarget);

    // ---- Tail blame: every (tenant, class, bucket) cell at or above
    //      the bucket of the nearest-rank tail sample, summed per
    //      (tenant, class) in bucket order.
    if (!latHist_.empty()) {
        out.tailThresholdMs = latHist_.quantile(cfg_.tailQuantile);
        const i32 cut = latHist_.rankBucket(cfg_.tailQuantile);
        std::vector<const GroupState *> order;
        for (const GroupState &grp : groups_)
            order.push_back(&grp);
        std::sort(order.begin(), order.end(),
                  [](const GroupState *a, const GroupState *b) {
                      return std::pair(a->tenant, a->cls) <
                             std::pair(b->tenant, b->cls);
                  });
        for (const GroupState *grp : order) {
            TailGroup g;
            g.tenant = grp->tenant;
            g.cls = grp->cls;
            if (grp->cls < cfg_.classNames.size())
                g.workload = cfg_.classNames[grp->cls];
            grp->buckets.forEach([&](i32 bucket, const BucketSums &b) {
                if (bucket < cut || b.requests == 0)
                    return;
                g.requests += b.requests;
                g.meanMs += b.latMs;
                for (u32 i = 0; i < kPhaseCount; ++i)
                    g.phaseMs[i] += b.phaseMs[i];
            });
            if (g.requests == 0)
                continue;
            out.tailRequests += g.requests;
            g.meanMs /= static_cast<double>(g.requests);
            out.tail.push_back(std::move(g));
        }
    }

    // ---- Per-tenant digests, tenant-ascending.
    std::vector<const TenantState *> tenants;
    for (const TenantState &t : tenants_)
        tenants.push_back(&t);
    std::sort(tenants.begin(), tenants.end(),
              [](const TenantState *a, const TenantState *b) {
                  return a->tenant < b->tenant;
              });
    for (const TenantState *tp : tenants) {
        const TenantState &t = *tp;
        TenantSummary s;
        s.tenant = t.tenant;
        s.requests = t.hist.count();
        s.meanMs = t.hist.mean();
        s.p50Ms = t.hist.quantile(0.50);
        s.p95Ms = t.hist.quantile(0.95);
        s.p99Ms = t.hist.quantile(0.99);
        s.p999Ms = t.hist.quantile(0.999);
        s.maxMs = t.hist.max();
        std::copy(std::begin(t.phaseMs), std::end(t.phaseMs),
                  s.phaseMs);
        s.sloMs = t.sloMs;
        s.sloGood = t.sloGood;
        s.sloViolations = t.sloViolations;
        s.sloAttainment = attainmentOf(s.sloGood, s.sloViolations);
        s.sloBurnRate =
            burnOf(s.sloGood, s.sloViolations, cfg_.sloTarget);
        out.tenants.push_back(s);
    }

    // ---- Virtual-time series: flatten the window store.
    out.series.reserve(series_.windows());
    for (std::size_t w = 0; w < series_.windows(); ++w) {
        SeriesWindow win;
        win.arrivals = static_cast<u64>(
            std::llround(series_.value(w, kColArrivals)));
        win.completions = static_cast<u64>(
            std::llround(series_.value(w, kColCompletions)));
        win.maxQueueDepth = series_.value(w, kColQueueDepth);
        win.maxInFlight = series_.value(w, kColInflight);
        win.busyNs = series_.value(w, kColBusyNs);
        const obs::Histogram &h = series_.hist(w, kColLatencyMs);
        if (!h.empty()) {
            win.p50Ms = h.quantile(0.50);
            win.p99Ms = h.quantile(0.99);
        }
        out.series.push_back(win);
    }
    return out;
}

std::vector<std::string>
ServiceMetricsSink::csvColumns()
{
    return {"scenario",        "variant",          "service",
            "policy",          "mode",             "devices",
            "rate_rps",        "clients",          "tenant",
            "requests",        "batches",          "mean_batch",
            "throughput_rps",  "mean_ms",          "p50_ms",
            "p95_ms",          "p99_ms",           "p999_ms",
            "max_ms",          "queue_wait_ms",    "batch_wait_ms",
            "lut_reload_ms",   "tfaw_stall_ms",    "exec_ms",
            "slo_ms",          "slo_good",         "slo_violations",
            "slo_attainment",  "slo_burn_rate",    "mean_queue_depth",
            "max_queue_depth", "utilization",      "pj_per_request",
            "makespan_ms",     "verified"};
}

std::string
ServiceMetricsSink::renderCsv(const sim::SimConfig &cfg,
                              const std::vector<ServiceRunRecord> &runs)
{
    CsvWriter csv(csvColumns());
    // Phase columns are per-request means so rows at different
    // request counts stay comparable.
    const auto phaseCells = [](const double (&sums)[kPhaseCount],
                               u64 requests,
                               std::vector<std::string> &row) {
        for (u32 i = 0; i < kPhaseCount; ++i)
            row.push_back(fmtNum(
                "%.6f", requests ? sums[i] /
                                       static_cast<double>(requests)
                                 : 0.0));
    };
    for (const auto &r : runs) {
        const auto common = [&](const std::string &tenant) {
            return std::vector<std::string>{
                cfg.name,
                r.variant,
                r.service,
                r.policy,
                r.mode,
                fmtU64(r.devices),
                fmtNum("%.4f", r.ratePerSec),
                fmtU64(r.clients),
                tenant,
            };
        };
        auto row = common("all");
        row.insert(row.end(),
                   {fmtU64(r.out.requests), fmtU64(r.out.batches),
                    fmtNum("%.4f", r.out.meanBatch),
                    fmtNum("%.4f", r.out.throughputRps),
                    fmtNum("%.6f", r.out.meanMs),
                    fmtNum("%.6f", r.out.p50Ms),
                    fmtNum("%.6f", r.out.p95Ms),
                    fmtNum("%.6f", r.out.p99Ms),
                    fmtNum("%.6f", r.out.p999Ms),
                    fmtNum("%.6f", r.out.maxMs)});
        phaseCells(r.out.phaseMs, r.out.requests, row);
        row.insert(row.end(),
                   {fmtNum("%.6f", r.out.sloMs),
                    fmtU64(r.out.sloGood),
                    fmtU64(r.out.sloViolations),
                    fmtNum("%.6f", r.out.sloAttainment),
                    fmtNum("%.6f", r.out.sloBurnRate),
                    fmtNum("%.4f", r.out.meanQueueDepth),
                    fmtNum("%.4f", r.out.maxQueueDepth),
                    fmtNum("%.6f", r.out.utilization),
                    fmtNum("%.6f", r.out.pjPerRequest),
                    fmtNum("%.6f", r.out.makespanMs),
                    r.out.verified ? "yes" : "no"});
        csv.addRow(row);
        for (const auto &t : r.out.tenants) {
            // Batching/queueing/utilization are pool-wide, not
            // per-tenant: those cells stay empty rather than zero so
            // column aggregation cannot silently mix placeholders.
            const double rps =
                r.out.makespanMs > 0.0
                    ? static_cast<double>(t.requests) /
                          (r.out.makespanMs * 1e-3)
                    : 0.0;
            auto trow = common(fmtU64(t.tenant));
            trow.insert(trow.end(),
                        {fmtU64(t.requests), "", "",
                         fmtNum("%.4f", rps),
                         fmtNum("%.6f", t.meanMs),
                         fmtNum("%.6f", t.p50Ms),
                         fmtNum("%.6f", t.p95Ms),
                         fmtNum("%.6f", t.p99Ms),
                         fmtNum("%.6f", t.p999Ms),
                         fmtNum("%.6f", t.maxMs)});
            phaseCells(t.phaseMs, t.requests, trow);
            trow.insert(trow.end(),
                        {fmtNum("%.6f", t.sloMs),
                         fmtU64(t.sloGood),
                         fmtU64(t.sloViolations),
                         fmtNum("%.6f", t.sloAttainment),
                         fmtNum("%.6f", t.sloBurnRate), "", "", "",
                         "", "", r.out.verified ? "yes" : "no"});
            csv.addRow(trow);
        }
    }
    return csv.render();
}

std::string
ServiceMetricsSink::renderJson(const sim::SimConfig &cfg,
                               const std::vector<ServiceRunRecord> &runs,
                               double wallMs)
{
    JsonValue root = JsonValue::object();
    root.set("scenario", cfg.name);
    root.set("mode", "service");
    root.set("total_runs",
             static_cast<unsigned long long>(runs.size()));
    bool allVerified = !runs.empty();
    for (const auto &r : runs)
        allVerified = allVerified && r.out.verified;
    root.set("all_verified", allVerified);
    root.set("wall_ms", wallMs);

    JsonValue &results = root.set("results", JsonValue::array());
    for (const auto &r : runs) {
        JsonValue &row = results.push(JsonValue::object());
        row.set("variant", r.variant);
        row.set("service", r.service);
        row.set("policy", r.policy);
        row.set("mode", r.mode);
        row.set("devices",
                static_cast<unsigned long long>(r.devices));
        row.set("rate_rps", r.ratePerSec);
        row.set("clients",
                static_cast<unsigned long long>(r.clients));
        row.set("requests",
                static_cast<unsigned long long>(r.out.requests));
        row.set("batches",
                static_cast<unsigned long long>(r.out.batches));
        row.set("mean_batch", r.out.meanBatch);
        row.set("makespan_ms", r.out.makespanMs);
        row.set("throughput_rps", r.out.throughputRps);
        setLatency(row, "", r.out.meanMs, r.out.p50Ms, r.out.p95Ms,
                   r.out.p99Ms, r.out.p999Ms, r.out.maxMs);
        row.set("mean_queue_depth", r.out.meanQueueDepth);
        row.set("max_queue_depth", r.out.maxQueueDepth);
        row.set("utilization", r.out.utilization);
        row.set("pj_per_request", r.out.pjPerRequest);
        row.set("verified", r.out.verified);
        setPhases(row, r.out.phaseMs);
        setSlo(row, r.out.sloMs, r.out.sloTarget, r.out.sloGood,
               r.out.sloViolations, r.out.sloAttainment,
               r.out.sloBurnRate);
        JsonValue &tail = row.set("tail", JsonValue::object());
        tail.set("quantile", r.out.tailQuantile);
        tail.set("threshold_ms", r.out.tailThresholdMs);
        tail.set("requests", static_cast<unsigned long long>(
                                 r.out.tailRequests));
        JsonValue &tenants =
            row.set("tenants", JsonValue::array());
        for (const auto &t : r.out.tenants) {
            JsonValue &trow = tenants.push(JsonValue::object());
            trow.set("tenant",
                     static_cast<unsigned long long>(t.tenant));
            trow.set("requests",
                     static_cast<unsigned long long>(t.requests));
            setLatency(trow, "", t.meanMs, t.p50Ms, t.p95Ms,
                       t.p99Ms, t.p999Ms, t.maxMs);
            setPhases(trow, t.phaseMs);
            setSlo(trow, t.sloMs, r.out.sloTarget, t.sloGood,
                   t.sloViolations, t.sloAttainment, t.sloBurnRate);
        }
    }
    return root.dump();
}

std::string
ServiceMetricsSink::renderTailReport(
    const sim::SimConfig &cfg,
    const std::vector<ServiceRunRecord> &runs)
{
    JsonValue root = JsonValue::object();
    root.set("scenario", cfg.name);
    root.set("mode", "tail_report");

    // Per-variant rollup across every cell of the variant: single
    // cells at low rates can have degenerate tails, the rollup is
    // what cross-variant assertions should read.
    struct Rollup
    {
        u64 requests = 0;
        double phaseMs[kPhaseCount] = {};
    };
    std::map<std::string, Rollup> rollup;

    const auto setShare = [](JsonValue &row,
                             const double (&phaseMs)[kPhaseCount]) {
        double total = 0.0;
        for (u32 i = 0; i < kPhaseCount; ++i)
            total += phaseMs[i];
        JsonValue &share = row.set("share", JsonValue::object());
        for (u32 i = 0; i < kPhaseCount; ++i)
            share.set(phaseName(i),
                      total > 0.0 ? phaseMs[i] / total : 0.0);
        u32 best = 0;
        for (u32 i = 1; i < kPhaseCount; ++i)
            if (phaseMs[i] > phaseMs[best])
                best = i;
        row.set("dominant_phase", std::string(phaseName(best)));
    };

    JsonValue &results = root.set("results", JsonValue::array());
    for (const auto &r : runs) {
        JsonValue &row = results.push(JsonValue::object());
        row.set("variant", r.variant);
        row.set("service", r.service);
        row.set("tail_quantile", r.out.tailQuantile);
        row.set("tail_threshold_ms", r.out.tailThresholdMs);
        row.set("tail_requests", static_cast<unsigned long long>(
                                     r.out.tailRequests));
        JsonValue &groups = row.set("groups", JsonValue::array());
        for (const auto &g : r.out.tail) {
            JsonValue &grow = groups.push(JsonValue::object());
            grow.set("tenant",
                     static_cast<unsigned long long>(g.tenant));
            grow.set("class",
                     static_cast<unsigned long long>(g.cls));
            grow.set("workload", g.workload);
            grow.set("requests",
                     static_cast<unsigned long long>(g.requests));
            grow.set("mean_ms", g.meanMs);
            JsonValue &ph = grow.set("phase_ms", JsonValue::object());
            for (u32 i = 0; i < kPhaseCount; ++i)
                ph.set(phaseName(i), g.phaseMs[i]);
            setShare(grow, g.phaseMs);

            Rollup &roll = rollup[r.variant];
            roll.requests += g.requests;
            for (u32 i = 0; i < kPhaseCount; ++i)
                roll.phaseMs[i] += g.phaseMs[i];
        }
    }

    JsonValue &variants = root.set("variants", JsonValue::array());
    for (const auto &[name, roll] : rollup) {
        JsonValue &vrow = variants.push(JsonValue::object());
        vrow.set("variant", name);
        vrow.set("tail_requests", static_cast<unsigned long long>(
                                      roll.requests));
        JsonValue &ph = vrow.set("phase_ms", JsonValue::object());
        for (u32 i = 0; i < kPhaseCount; ++i)
            ph.set(phaseName(i), roll.phaseMs[i]);
        setShare(vrow, roll.phaseMs);
    }
    return root.dump();
}

std::string
ServiceMetricsSink::renderTimeseriesCsv(
    const sim::SimConfig &cfg,
    const std::vector<ServiceRunRecord> &runs)
{
    CsvWriter csv({"scenario", "variant", "service", "window",
                   "start_ms", "window_ms", "arrivals",
                   "completions", "queue_depth_max", "inflight_max",
                   "utilization", "p50_ms", "p99_ms"});
    for (const auto &r : runs) {
        const double winMs = r.out.seriesIntervalMs;
        const double winNs = winMs * 1e6;
        for (std::size_t w = 0; w < r.out.series.size(); ++w) {
            const SeriesWindow &win = r.out.series[w];
            const double util =
                r.devices > 0 && winNs > 0.0
                    ? win.busyNs /
                          (static_cast<double>(r.devices) * winNs)
                    : 0.0;
            csv.addRow({cfg.name, r.variant, r.service, fmtU64(w),
                        fmtNum("%.6f",
                               static_cast<double>(w) * winMs),
                        fmtNum("%.6f", winMs), fmtU64(win.arrivals),
                        fmtU64(win.completions),
                        fmtNum("%.4f", win.maxQueueDepth),
                        fmtNum("%.4f", win.maxInFlight),
                        fmtNum("%.6f", util),
                        fmtNum("%.6f", win.p50Ms),
                        fmtNum("%.6f", win.p99Ms)});
        }
    }
    return csv.render();
}

std::string
ServiceMetricsSink::write(const sim::SimConfig &cfg,
                          const std::vector<ServiceRunRecord> &runs,
                          double wallMs,
                          std::vector<std::string> &written,
                          const std::string &suffix)
{
    const std::string base = cfg.outDir + "/" + cfg.name + suffix;
    const std::string csvPath = base + "_service_runs.csv";
    std::string err = writeTextFile(csvPath, renderCsv(cfg, runs));
    if (!err.empty())
        return err;
    written.push_back(csvPath);
    const std::string jsonPath = base + "_service_summary.json";
    err = writeTextFile(jsonPath, renderJson(cfg, runs, wallMs));
    if (!err.empty())
        return err;
    written.push_back(jsonPath);
    return {};
}

} // namespace pluto::serve
