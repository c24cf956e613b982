/**
 * @file
 * ServiceMetrics: streaming metric collection of one serving
 * simulation and the CSV/JSON report writers of --service mode.
 *
 * Every completed request carries a phase breakdown on the virtual
 * clock (queue wait behind a busy device, policy batch wait, LUT
 * reload, tFAW stall, execution) that sums exactly to its end-to-end
 * latency. onComplete() folds each request into fixed-size state and
 * keeps no per-request record:
 *
 *  - the exactly mergeable latency histograms (obs/histogram), one
 *    pool-wide and one per tenant, are the only quantile estimator:
 *    every p50..p999 column, mean and max comes from them;
 *  - phase sums and SLO good/violation counts, pool-wide and per
 *    tenant, accumulate online in completion order;
 *  - tail blame keeps per-(tenant, class) request/latency/phase sums
 *    per histogram bucket. finish() blames every request whose
 *    bucket is at or above the bucket holding the nearest-rank
 *    sample of `tail_quantile`, so the threshold has the histogram's
 *    <= 1/64 relative resolution;
 *  - a fixed-interval virtual-time series (obs/timeseries).
 *
 * All of it is flat: tenants and (tenant, class) tail groups live in
 * vectors in first-completion order, found through a per-class hint
 * that every request of a class hits once the class has completed
 * (a request whose tenant differs from its class's last one falls
 * back to a scan); per-bucket state sits in the histograms' dense
 * bucket slots. finish() sorts tenants and groups by id, so outputs
 * keep tenant- and (tenant, class)-ascending order. Memory grows with
 * the number of tenants, classes and the spread of latency buckets,
 * never with the request count.
 *
 * Everything in a ServiceOutcome derives from the virtual clock and
 * the devices' command schedulers, so outcomes are bit-identical
 * across host thread counts and replay bit-identically from the
 * service cache. All analysis is computed unconditionally into the
 * outcome; CLI flags only choose which files get written, keeping
 * --deterministic outputs byte-identical with the flags on or off.
 */

#ifndef PLUTO_SERVE_METRICS_HH
#define PLUTO_SERVE_METRICS_HH

#include <string>
#include <vector>

#include "obs/histogram.hh"
#include "obs/timeseries.hh"
#include "serve/loadgen.hh"
#include "sim/config.hh"

namespace pluto::serve
{

/** Latency phases of one request, in breakdown order. */
enum class Phase : u32
{
    /** Waiting because the device was still serving earlier work. */
    QueueWait = 0,
    /** Waiting on the batching policy while the device sat idle. */
    BatchWait,
    /** LUT reload commands of the request's batch (GSA re-loads per
     *  query; BSA/GMC serve from residency and charge none). */
    LutReload,
    /** tFAW rolling-window activation stalls of the batch. */
    TfawStall,
    /** Remaining batch service time (waves, sweeps, host work). */
    Exec,
};

/** Number of Phase values (array extents, render loops). */
constexpr u32 kPhaseCount = 5;

/** @return the report spelling of a phase ("queue_wait_ms", ...). */
const char *phaseName(u32 phase);

/** Latency digest of one tenant's completed requests. */
struct TenantSummary
{
    u32 tenant = 0;
    u64 requests = 0;
    double meanMs = 0.0;
    /** Quantiles from the tenant's mergeable histogram (exact bucket
     *  rank, <= 1/64 relative bucket width). */
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double p999Ms = 0.0;
    double maxMs = 0.0;
    /** Phase sums over the tenant's requests, ms (Phase order). */
    double phaseMs[kPhaseCount] = {};
    /** Tightest effective SLO among the tenant's requests, ms
     *  (0 = untracked). */
    double sloMs = 0.0;
    /** Requests within / beyond their effective SLO. */
    u64 sloGood = 0;
    u64 sloViolations = 0;
    /** good / tracked (0 when untracked). */
    double sloAttainment = 0.0;
    /** (1 - attainment) / (1 - target): 1.0 = exactly at target. */
    double sloBurnRate = 0.0;
};

/** One (tenant, class) row of the tail-blame table. */
struct TailGroup
{
    u32 tenant = 0;
    u32 cls = 0;
    std::string workload;
    /** Requests of this group above the tail threshold. */
    u64 requests = 0;
    /** Mean end-to-end latency of those requests, ms. */
    double meanMs = 0.0;
    /** Phase sums over those requests, ms (Phase order). */
    double phaseMs[kPhaseCount] = {};

    /** @return Phase index with the largest summed share. */
    u32 dominantPhase() const;
};

/** One fixed-interval window of the virtual-time series. */
struct SeriesWindow
{
    u64 arrivals = 0;
    u64 completions = 0;
    double maxQueueDepth = 0.0;
    /** Devices concurrently busy (max within the window). */
    double maxInFlight = 0.0;
    /** Summed device busy time inside the window, ns. */
    double busyNs = 0.0;
    /** Windowed completion-latency quantiles, ms (0 when none). */
    double p50Ms = 0.0;
    double p99Ms = 0.0;
};

/** Simulated outcome of one (variant, service) cell. */
struct ServiceOutcome
{
    /** Completed requests / dispatched batches. */
    u64 requests = 0;
    u64 batches = 0;
    /** Mean dispatched batch size. */
    double meanBatch = 0.0;
    /** Virtual time from t=0 to the last completion, ms. */
    double makespanMs = 0.0;
    /** Completed requests per second of virtual time. */
    double throughputRps = 0.0;
    /** End-to-end latency digest (queueing + service), ms, from
     *  latHist (quantiles at <= 1/64 relative bucket width). */
    double meanMs = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double p999Ms = 0.0;
    double maxMs = 0.0;
    /** Total queued requests, sampled at each arrival. */
    double meanQueueDepth = 0.0;
    double maxQueueDepth = 0.0;
    /** Busy time over devices x makespan. */
    double utilization = 0.0;
    /** Scheduler command energy per completed request, pJ. */
    double pjPerRequest = 0.0;
    /** Every calibration run passed functional verification. */
    bool verified = false;
    /** Host wall-clock spent inside the simulation loop itself,
     *  pool setup and calibration excluded (bench_serve_scale's
     *  engine comparison). Diagnostic only: never written to any
     *  output file, so deterministic outputs are unaffected. */
    double loopHostMs = 0.0;

    /** Phase sums over all requests, ms (Phase order). */
    double phaseMs[kPhaseCount] = {};
    /** Service-level SLO echo, ms (0 = no SLO tracking). */
    double sloMs = 0.0;
    /** SLO attainment target echo. */
    double sloTarget = 0.0;
    u64 sloGood = 0;
    u64 sloViolations = 0;
    double sloAttainment = 0.0;
    double sloBurnRate = 0.0;
    /** Tail-blame cutoff echo and the threshold it resolved to:
     *  latHist.quantile(tailQuantile), the midpoint of the bucket
     *  holding the nearest-rank sample. */
    double tailQuantile = 0.0;
    double tailThresholdMs = 0.0;
    /** Requests whose latency bucket is at or above the threshold's
     *  (the blamed population). */
    u64 tailRequests = 0;
    /** Virtual-time series window width echo, ms. */
    double seriesIntervalMs = 0.0;

    /** Exactly mergeable end-to-end latency histogram, ms. */
    obs::Histogram latHist;
    /** Tail-blame rows, (tenant, class)-ascending. */
    std::vector<TailGroup> tail;
    /** Virtual-time series windows, time-ascending from t=0. */
    std::vector<SeriesWindow> series;
    /** Per-tenant latency digests, tenant-ascending. */
    std::vector<TenantSummary> tenants;
};

/** One --service run: labels + spec echo + outcome. */
struct ServiceRunRecord
{
    std::string variant;
    std::string service;
    /** Spec echo (redundant with the config; kept for the report). */
    std::string policy;
    std::string mode;
    u32 devices = 1;
    double ratePerSec = 0.0;
    u32 clients = 0;
    ServiceOutcome out;
    /** Outcome was replayed from the service cache. */
    bool fromCache = false;
};

/** Analysis knobs of one cell, resolved from spec and mix. */
struct MetricsConfig
{
    /** Service-level SLO, ms (0 = no SLO tracking). */
    double sloMs = 0.0;
    /** SLO attainment target in (0,1). */
    double sloTarget = 0.99;
    /** Tail-blame cutoff quantile in (0,1). */
    double tailQuantile = 0.99;
    /** Virtual-time series window width, ms. */
    double seriesIntervalMs = 1.0;
    /** Effective SLO per request class (override or service SLO). */
    std::vector<double> classSloMs;
    /** Workload name per class (tail-report labels). */
    std::vector<std::string> classNames;

    /** Resolve the knobs of one (spec, mix) cell. */
    static MetricsConfig from(const sim::ServiceSpec &spec,
                              const std::vector<RequestClass> &mix);
};

/** Per-request phase breakdown handed to onComplete, ns. */
struct PhaseBreakdownNs
{
    double ns[kPhaseCount] = {};
};

/** Streaming collector filled by the simulator's event loop. */
class ServiceMetrics
{
  public:
    explicit ServiceMetrics(MetricsConfig cfg = {});

    /** Record one arrival (time on the virtual clock). */
    void onArrival(TimeNs at);

    /** Record a queue-depth sample (taken at each arrival). */
    void onQueueDepth(TimeNs at, u64 depth);

    /** Record one dispatched batch. `busyDevices` counts devices in
     *  service right after the dispatch; `serviceNs` is the batch's
     *  scheduler time (spread over the series windows it spans). */
    void onBatch(TimeNs at, u32 size, u32 busyDevices,
                 TimeNs serviceNs);

    /** Record one completed request with its phase breakdown; the
     *  phases must sum to finishNs - r.arriveNs. */
    void onComplete(const Request &r, TimeNs finishNs,
                    const PhaseBreakdownNs &ph);

    /** Fold the collected streams into an outcome. `busyNs` is the
     *  summed busy time of all devices, `energyPj` the summed
     *  scheduler command energy. */
    ServiceOutcome finish(u32 devices, TimeNs busyNs,
                          double energyPj, bool verified) const;

  private:
    /** Tail-blame sums of one (tenant, class, latency bucket) cell. */
    struct BucketSums
    {
        u64 requests = 0;
        double latMs = 0.0;
        double phaseMs[kPhaseCount] = {};
    };

    /** Online state of one tenant. */
    struct TenantState
    {
        u32 tenant = 0;
        obs::Histogram hist;
        double phaseMs[kPhaseCount] = {};
        /** Tightest effective SLO among the tenant's requests, ms. */
        double sloMs = 0.0;
        u64 sloGood = 0;
        u64 sloViolations = 0;
    };

    /** Tail-blame state of one (tenant, class) pair. */
    struct GroupState
    {
        u32 tenant = 0;
        u32 cls = 0;
        /** The tenant's index in tenants_. */
        u32 slot = 0;
        /** Histogram::bucketOf(latency) -> sums. */
        obs::Histogram::Slots<BucketSums> buckets;
    };

    /** @return the groups_ index of (r.tenant, r.cls), creating the
     *  group (and its tenant) on first sight. */
    u32 groupOf(const Request &r);

    MetricsConfig cfg_;
    obs::Histogram latHist_;
    /** Tenants and groups in first-completion order. */
    std::vector<TenantState> tenants_;
    std::vector<GroupState> groups_;
    /** Per class: the group its last request folded into. */
    std::vector<u32> classGroup_;
    double phaseMs_[kPhaseCount] = {};
    u64 sloGood_ = 0;
    u64 sloViolations_ = 0;
    obs::TimeSeries series_;
    double queueDepthSum_ = 0.0;
    u64 queueDepthSamples_ = 0;
    double queueDepthMax_ = 0.0;
    u64 batches_ = 0;
    u64 batchedRequests_ = 0;
    TimeNs lastFinishNs_ = 0.0;
};

/** Output writer for --service mode results. */
class ServiceMetricsSink
{
  public:
    /** Column names of the service CSV, in order. */
    static std::vector<std::string> csvColumns();

    /**
     * @return the service CSV document: per record one `tenant=all`
     * row plus one row per tenant.
     */
    static std::string
    renderCsv(const sim::SimConfig &cfg,
              const std::vector<ServiceRunRecord> &runs);

    /** @return the JSON summary document. */
    static std::string
    renderJson(const sim::SimConfig &cfg,
               const std::vector<ServiceRunRecord> &runs,
               double wallMs);

    /**
     * @return the tail-blame JSON document (--tail-report): per run
     * the (tenant, class) groups above the tail threshold with phase
     * sums, shares and the dominant phase, plus a per-variant rollup
     * across all of the variant's cells.
     */
    static std::string
    renderTailReport(const sim::SimConfig &cfg,
                     const std::vector<ServiceRunRecord> &runs);

    /**
     * @return the virtual-time series CSV (--timeseries): one row
     * per (run, window) with rates, depths, utilization and windowed
     * latency quantiles.
     */
    static std::string
    renderTimeseriesCsv(const sim::SimConfig &cfg,
                        const std::vector<ServiceRunRecord> &runs);

    /**
     * Write `<outDir>/<name><suffix>_service_runs.csv` and
     * `<outDir>/<name><suffix>_service_summary.json`. On success
     * @return empty string and append both paths to `written`.
     */
    static std::string
    write(const sim::SimConfig &cfg,
          const std::vector<ServiceRunRecord> &runs, double wallMs,
          std::vector<std::string> &written,
          const std::string &suffix = {});
};

} // namespace pluto::serve

#endif // PLUTO_SERVE_METRICS_HH
