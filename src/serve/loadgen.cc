/**
 * @file
 * Deterministic request generation (see loadgen.hh).
 */

#include "serve/loadgen.hh"

#include <cmath>
#include <limits>
#include <map>
#include <system_error>

#include "common/logging.hh"
#include "workloads/workload.hh"

namespace pluto::serve
{

std::vector<RequestClass>
buildMix(const sim::SimConfig &cfg, const runtime::DeviceConfig &dev)
{
    std::vector<RequestClass> mix;
    mix.reserve(cfg.workloads.size());
    for (const auto &w : cfg.workloads) {
        RequestClass c;
        c.workload = w.name;
        c.elements = w.elements;
        if (c.elements == 0) {
            const auto wl = workloads::createWorkload(w.name);
            PLUTO_ASSERT(wl != nullptr);
            c.elements = wl->defaultElements(dev.memory);
        }
        c.seed = w.seed;
        c.tenant = w.tenant;
        c.weight = w.weight;
        c.sloMs = w.sloMs;
        mix.push_back(std::move(c));
    }
    return mix;
}

LoadGen::LoadGen(const sim::ServiceSpec &spec,
                 const std::vector<RequestClass> &mix,
                 ArrivalDriver driver)
    : spec_(spec), mix_(mix), durationNs_(spec.durationMs * 1e6),
      rng_(spec.seed)
{
    PLUTO_ASSERT(!mix_.empty());
    double acc = 0.0;
    for (const auto &c : mix_) {
        acc += c.weight;
        cumWeight_.push_back(acc);
    }

    if (spec_.tenantSkew > 0.0) {
        // Rank tenants ascending by id: rank 1 (the Zipf head) is
        // the lowest tenant id of the mix.
        std::map<u32, TenantClasses> byTenant;
        for (u32 i = 0; i < mix_.size(); ++i) {
            TenantClasses &tc = byTenant[mix_[i].tenant];
            tc.classes.push_back(i);
            const double prev =
                tc.cumWeight.empty() ? 0.0 : tc.cumWeight.back();
            tc.cumWeight.push_back(prev + mix_[i].weight);
        }
        for (auto &[tenant, tc] : byTenant)
            tenants_.push_back(std::move(tc));
        zipf_.emplace(tenants_.size(), spec_.tenantSkew);
    }

    if (spec_.closedLoop) {
        // Each client issues its first request after one think draw,
        // staggering the initial wave the way think time staggers
        // steady state.
        for (u32 i = 0; i < spec_.clients; ++i) {
            const TimeNs at = drawThink();
            if (at <= durationNs_)
                push(at);
        }
        return;
    }
    ring_[0] = std::make_unique<Block>();
    takeBlock();
    // A producer pays for its start-up only on a schedule longer
    // than one block.
    if (driver == ArrivalDriver::Thread && end_ - cur_ == kBlock) {
        for (u32 i = 1; i < kBlocks; ++i)
            ring_[i] = std::make_unique<Block>();
        published_.store(1, std::memory_order_relaxed);
        try {
            producer_ = std::thread(&LoadGen::produce, this);
        } catch (const std::system_error &) {
            // No thread to spare after all: the inline fill draws
            // the same schedule.
        }
    }
}

LoadGen::~LoadGen()
{
    if (!producer_.joinable())
        return;
    // Changing released_ wakes a producer blocked on a full ring; it
    // sees stop_ before it draws another block.
    stop_.store(true);
    released_.fetch_add(1);
    released_.notify_one();
    producer_.join();
}

TimeNs
LoadGen::nextArrivalAt() const
{
    if (!hasPending())
        return std::numeric_limits<double>::infinity();
    return spec_.closedLoop ? pending_.top().arriveNs : cur_->arriveNs;
}

u32
LoadGen::drawClass()
{
    if (zipf_) {
        const u64 rank = zipf_->sample(rng_);
        const TenantClasses &tc = tenants_[rank - 1];
        if (tc.classes.size() == 1)
            return tc.classes.front();
        const double x = rng_.uniform() * tc.cumWeight.back();
        for (std::size_t i = 0; i + 1 < tc.cumWeight.size(); ++i)
            if (x < tc.cumWeight[i])
                return tc.classes[i];
        return tc.classes.back();
    }
    const double total = cumWeight_.back();
    const double x = rng_.uniform() * total;
    for (std::size_t i = 0; i < cumWeight_.size(); ++i)
        if (x < cumWeight_[i])
            return static_cast<u32>(i);
    return static_cast<u32>(mix_.size() - 1);
}

void
LoadGen::push(TimeNs at)
{
    Request r;
    r.id = nextId_++;
    r.cls = drawClass();
    r.tenant = mix_[r.cls].tenant;
    r.arriveNs = at;
    pending_.push(r);
}

TimeNs
LoadGen::drawThink()
{
    const TimeNs mean = spec_.thinkMs * 1e6;
    if (mean <= 0.0)
        return 0.0;
    if (spec_.uniformArrivals)
        return mean;
    return -std::log1p(-rng_.uniform()) * mean;
}

void
LoadGen::fill(Block &b)
{
    // Per request the gap draw comes first, then the class draw:
    // every schedule is a pure function of that order.
    u32 count = 0;
    while (count < kBlock) {
        const TimeNs gap =
            spec_.uniformArrivals
                ? 1e9 / spec_.ratePerSec
                : -std::log1p(-rng_.uniform()) * 1e9 /
                      spec_.ratePerSec;
        frontier_ += gap;
        if (frontier_ > durationNs_)
            break;
        Request &r = b.reqs[count++];
        r.id = nextId_++;
        r.cls = drawClass();
        r.tenant = mix_[r.cls].tenant;
        r.arriveNs = frontier_;
    }
    b.count = count;
}

void
LoadGen::produce() noexcept
{
    // Cannot throw: every slot is allocated, and drawing allocates
    // nothing.
    for (u32 n = published_.load(std::memory_order_relaxed);
         !stop_.load(); ++n) {
        u32 released = released_.load(std::memory_order_acquire);
        while (n - released == kBlocks) {
            released_.wait(released, std::memory_order_acquire);
            if (stop_.load())
                return;
            released = released_.load(std::memory_order_acquire);
        }
        Block &b = *ring_[n % kBlocks];
        fill(b);
        published_.store(n + 1, std::memory_order_release);
        published_.notify_one();
        if (b.count < kBlock)
            return;
    }
}

LoadGen::Block &
LoadGen::slot(u32 n)
{
    // Inline, the consumer is done with every earlier block when it
    // draws the next, so one slot serves them all.
    return *ring_[producer_.joinable() ? n % kBlocks : 0];
}

void
LoadGen::takeBlock()
{
    const u32 head = released_.load(std::memory_order_relaxed);
    if (producer_.joinable()) {
        u32 published = published_.load(std::memory_order_acquire);
        while (published == head) {
            published_.wait(published, std::memory_order_acquire);
            published = published_.load(std::memory_order_acquire);
        }
    } else {
        fill(slot(head));
    }
    const Block &b = slot(head);
    cur_ = b.reqs.data();
    end_ = cur_ + b.count;
}

bool
LoadGen::poll(TimeNs until, Request &out)
{
    if (spec_.closedLoop) {
        if (pending_.empty() || pending_.top().arriveNs > until)
            return false;
        out = pending_.top();
        pending_.pop();
        return true;
    }
    if (cur_ == end_ || cur_->arriveNs > until)
        return false;
    out = *cur_++;
    if (cur_ == end_)
        nextBlock();
    return true;
}

void
LoadGen::nextBlock()
{
    const u32 head = released_.load(std::memory_order_relaxed);
    if (slot(head).count < kBlock)
        return; // the schedule's last block: nothing is pending
    released_.store(head + 1, std::memory_order_release);
    released_.notify_one();
    takeBlock();
}

void
LoadGen::onComplete(const Request &, TimeNs finishNs)
{
    if (!spec_.closedLoop)
        return;
    const TimeNs at = finishNs + drawThink();
    if (at <= durationNs_)
        push(at);
}

} // namespace pluto::serve
