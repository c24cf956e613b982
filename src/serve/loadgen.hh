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
 * drawn in that order (`frontier_ += gap` only grows, ids count up)
 * into a fixed single-producer/single-consumer ring of request
 * blocks; closed-loop clients complete out of order, so their next
 * arrivals go through a heap.
 *
 * The open-loop ring has one code path and two drivers (see
 * ArrivalDriver): a producer thread that draws up to kBlocks blocks
 * ahead of the consumer, or the consumer itself, which fills the
 * next block inline when the ring runs dry. Both draw the same
 * sequence, so the driver never changes a result.
 *
 * With `tenant_skew` s > 0 the class draw goes through a Zipf(s)
 * tenant draw first: the mix's distinct tenant ids are ranked
 * ascending (lowest id = rank 1 = hottest) and the class is then
 * drawn from the chosen tenant's weights. Skew 0 (the default) keeps
 * the plain weight draw bit-for-bit.
 */

#ifndef PLUTO_SERVE_LOADGEN_HH
#define PLUTO_SERVE_LOADGEN_HH

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <queue>
#include <thread>
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

/** Who draws the open-loop arrival schedule (closed loop always
 *  draws on the consuming thread: its arrivals follow completions). */
enum class ArrivalDriver : u8
{
    /** The consuming thread fills the next block when the ring is
     *  empty. */
    Inline,
    /** A producer thread fills blocks ahead of the consumer. The
     *  consumer still draws block 0, and a schedule that ends within
     *  it starts no thread. */
    Thread,
};

/** Deterministic arrival source for one serving simulation. */
class LoadGen
{
  public:
    /** Requests per ring block. */
    static constexpr u32 kBlock = 1024;
    /** Blocks in the open-loop ring. */
    static constexpr u32 kBlocks = 8;

    LoadGen(const sim::ServiceSpec &spec,
            const std::vector<RequestClass> &mix,
            ArrivalDriver driver = ArrivalDriver::Inline);

    /** Stops and joins the producer thread, even when it is blocked
     *  on a full ring. */
    ~LoadGen();

    // The producer thread holds `this`.
    LoadGen(const LoadGen &) = delete;
    LoadGen &operator=(const LoadGen &) = delete;

    /** @return earliest pending arrival time; +inf when none. */
    TimeNs nextArrivalAt() const;

    /** @return true when at least one arrival is pending. */
    bool hasPending() const
    {
        return spec_.closedLoop ? !pending_.empty() : cur_ != end_;
    }

    /**
     * Streaming arrival pop: write the earliest pending arrival with
     * time <= `until` to `out` and return true, or return false when
     * none is due. Repeated calls walk the schedule in (time, id)
     * order. Allocation-free — a drained tick is a single
     * comparison, and the threads synchronize once per block.
     */
    bool poll(TimeNs until, Request &out);

    /**
     * Closed loop: request `r` finished at `finishNs`; schedule the
     * client's next arrival after its think time (dropped when it
     * would fall past the duration). No-op in open loop.
     */
    void onComplete(const Request &r, TimeNs finishNs);

  private:
    /** One ring slot: `count` requests; a short block (count <
     *  kBlock, possibly 0) is the last of the schedule. */
    struct Block
    {
        std::array<Request, kBlock> reqs;
        u32 count = 0;
    };

    /** Draw the next class index from the mix weights. */
    u32 drawClass();

    /** Closed loop: schedule one request at `at`. */
    void push(TimeNs at);

    /** Open loop: draw the schedule's next block into `b`. */
    void fill(Block &b);

    /** Consumer: the slot that holds block `n`. */
    Block &slot(u32 n);

    /** Producer-thread body: fill and publish blocks until the
     *  schedule ends or the destructor stops it. */
    void produce() noexcept;

    /** Consumer: point cur_/end_ at block `released_`, drawing it
     *  first (inline) or waiting until it is published (thread). */
    void takeBlock();

    /** Consumer, head block read to its end: release it and take
     *  the next, unless it was the schedule's last. Keeping the next
     *  arrival in view keeps nextArrivalAt() exact. */
    void nextBlock();

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
    TimeNs durationNs_ = 0.0;
    /** Open loop: the ring. With a producer, block n lives in slot
     *  n % kBlocks; the producer writes only blocks in [released_,
     *  released_ + kBlocks), the consumer reads only block released_
     *  once it is below published_. Inline, every block is drawn
     *  into slot 0, allocated with the LoadGen. */
    std::array<std::unique_ptr<Block>, kBlocks> ring_;

    // The draw state, the two counters and the consumer's view each
    // get their own cache line: with a producer thread, the draw
    // state is rewritten once per request on one core while the
    // consumer reads its view once per request on another.

    /** Cache-line size the groups below are aligned to. */
    static constexpr std::size_t kLine = 64;
    alignas(kLine) Rng rng_;
    /** Open loop: last drawn arrival instant. */
    TimeNs frontier_ = 0.0;
    u64 nextId_ = 0;

    /** Blocks published to the producer thread's consumer (counts
     *  up; the constructor publishes block 0 before starting it). */
    alignas(kLine) std::atomic<u32> published_{0};
    /** Blocks the consumer is done with (counts up). */
    alignas(kLine) std::atomic<u32> released_{0};
    /** Set by the destructor; the producer exits at its next check. */
    std::atomic<bool> stop_{false};
    /** Consumer's unread part of the head block. */
    alignas(kLine) const Request *cur_ = nullptr;
    const Request *end_ = nullptr;

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

    /** Open loop with ArrivalDriver::Thread, once block 0 came out
     *  full: the producer. Declared last, so it starts after and
     *  stops before everything it uses. */
    std::thread producer_;
};

} // namespace pluto::serve

#endif // PLUTO_SERVE_LOADGEN_HH
