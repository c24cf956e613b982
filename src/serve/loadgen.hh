/**
 * @file
 * LoadGen: deterministic request generation for the serving
 * simulator.
 *
 * Open loop: requests arrive on a seeded Poisson process (or with
 * exact uniform spacing) at `rate` requests/s for `duration_ms` of
 * simulated time, regardless of how fast the system drains them —
 * the classic saturation-curve driver.
 *
 * Closed loop: `clients` clients each keep exactly one request in
 * flight; after a completion the client thinks for `think_ms`
 * (exponential under poisson arrivals, fixed under uniform) and
 * issues its next request, until the arrival would fall past
 * `duration_ms`.
 *
 * Every request names a request class — a (workload, elements, seed,
 * tenant) tuple built from the scenario's [workload] entries — drawn
 * from the class weights with the same seeded Rng that drives the
 * interarrival draws, so an entire arrival sequence is a pure
 * function of (ServiceSpec, mix).
 *
 * Pending arrivals wait in (time, id) order. Open-loop arrivals are
 * drawn in that order (`frontier_ += gap` only grows, ids count up),
 * so they queue in a FIFO; closed-loop clients complete out of
 * order, so their next arrivals go through a heap.
 *
 * With `tenant_skew` s > 0 the class draw goes through a Zipf(s)
 * tenant draw first: the mix's distinct tenant ids are ranked
 * ascending (lowest id = rank 1 = hottest) and the class is then
 * drawn from the chosen tenant's weights. Skew 0 (the default) keeps
 * the plain weight draw bit-for-bit.
 */

#ifndef PLUTO_SERVE_LOADGEN_HH
#define PLUTO_SERVE_LOADGEN_HH

#include <optional>
#include <queue>
#include <vector>

#include "common/random.hh"
#include "serve/zipf.hh"
#include "sim/config.hh"

namespace pluto::serve
{

/** One request class of the serving mix. */
struct RequestClass
{
    /** Workload registry name. */
    std::string workload;
    /** Resolved input size (never 0). */
    u64 elements = 0;
    /** Input-generation seed of the class's calibration run. */
    u64 seed = 0;
    /** Tenant the class's requests are attributed to. */
    u32 tenant = 0;
    /** Relative weight in the mix draw. */
    double weight = 1.0;
    /** Per-class SLO override, ms (0 = the service-level SLO). */
    double sloMs = 0.0;
};

/** One in-flight service request. */
struct Request
{
    /** Issue sequence number (0-based). */
    u64 id = 0;
    /** Index into the request-class mix. */
    u32 cls = 0;
    /** Tenant of the request's class. */
    u32 tenant = 0;
    /** Arrival time on the virtual clock, ns. */
    TimeNs arriveNs = 0.0;
};

/**
 * Build the request mix of a scenario for one device configuration:
 * one class per [workload] entry, with `elements = 0` resolved to the
 * workload's paper-scale default for the device's memory kind.
 */
std::vector<RequestClass> buildMix(const sim::SimConfig &cfg,
                                   const runtime::DeviceConfig &dev);

/** Deterministic arrival source for one serving simulation. */
class LoadGen
{
  public:
    LoadGen(const sim::ServiceSpec &spec,
            const std::vector<RequestClass> &mix);

    /** @return earliest pending arrival time; +inf when none. */
    TimeNs nextArrivalAt() const;

    /** @return true when at least one arrival is pending. */
    bool hasPending() const
    {
        return spec_.closedLoop ? !pending_.empty()
                                : head_ < fifo_.size();
    }

    /**
     * Streaming arrival pop: write the earliest pending arrival with
     * time <= `until` to `out` and return true, or return false when
     * none is due. Repeated calls walk the schedule in (time, id)
     * order; open-loop generation refills lazily. Allocation-free on
     * the steady path — a drained tick is a single comparison.
     */
    bool poll(TimeNs until, Request &out);

    /**
     * Closed loop: request `r` finished at `finishNs`; schedule the
     * client's next arrival after its think time (dropped when it
     * would fall past the duration). No-op in open loop.
     */
    void onComplete(const Request &r, TimeNs finishNs);

    /** @return requests issued so far. */
    u64 issued() const { return nextId_; }

  private:
    /** Draw the next class index from the mix weights. */
    u32 drawClass();

    /** Schedule one request at `at`. */
    void push(TimeNs at);

    /** Open loop: extend the schedule up to (and one past) `until`. */
    void refill(TimeNs until);

    /** One think-time draw, ns. */
    TimeNs drawThink();

    /** One tenant's slice of the mix (tenant_skew > 0 only). */
    struct TenantClasses
    {
        /** Mix indices of the tenant's classes, in mix order. */
        std::vector<u32> classes;
        /** Cumulative class weights within the tenant. */
        std::vector<double> cumWeight;
    };

    sim::ServiceSpec spec_;
    std::vector<RequestClass> mix_;
    /** Cumulative mix weights for the class draw. */
    std::vector<double> cumWeight_;
    /**
     * Zipf rank order of tenants when tenant_skew > 0: index r holds
     * rank r+1, ranks ascend with tenant id (lowest id = hottest).
     */
    std::vector<TenantClasses> tenants_;
    /** Tenant-rank sampler; engaged iff tenant_skew > 0. */
    std::optional<ZipfSampler> zipf_;
    Rng rng_;
    TimeNs durationNs_ = 0.0;
    /** Open loop: next undrawn arrival instant. */
    TimeNs frontier_ = 0.0;
    bool openDone_ = false;
    u64 nextId_ = 0;

    /** Open loop: pending arrivals, [head_, size) of fifo_. The
     *  consumed prefix is dropped once it is the larger half, so the
     *  buffer stays as short as the lookahead. */
    std::vector<Request> fifo_;
    std::size_t head_ = 0;

    /** Closed loop: pending arrivals, earliest (time, id) on top. */
    struct Later
    {
        bool operator()(const Request &a, const Request &b) const
        {
            if (a.arriveNs != b.arriveNs)
                return a.arriveNs > b.arriveNs;
            return a.id > b.id;
        }
    };
    std::priority_queue<Request, std::vector<Request>, Later> pending_;
};

} // namespace pluto::serve

#endif // PLUTO_SERVE_LOADGEN_HH
