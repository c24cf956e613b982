/**
 * @file
 * Deterministic request generation (see loadgen.hh).
 */

#include "serve/loadgen.hh"

#include <cmath>
#include <limits>
#include <map>

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
                 const std::vector<RequestClass> &mix)
    : spec_(spec), mix_(mix), rng_(spec.seed),
      durationNs_(spec.durationMs * 1e6)
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
        openDone_ = true;
        for (u32 i = 0; i < spec_.clients; ++i) {
            const TimeNs at = drawThink();
            if (at <= durationNs_)
                push(at);
        }
    } else {
        refill(0.0);
    }
}

TimeNs
LoadGen::nextArrivalAt() const
{
    if (!hasPending())
        return std::numeric_limits<double>::infinity();
    return spec_.closedLoop ? pending_.top().arriveNs
                            : fifo_[head_].arriveNs;
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
    if (spec_.closedLoop) {
        pending_.push(r);
        return;
    }
    if (head_ >= 64 && 2 * head_ >= fifo_.size()) {
        fifo_.erase(fifo_.begin(),
                    fifo_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    fifo_.push_back(r);
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
LoadGen::refill(TimeNs until)
{
    // Keep at least one arrival beyond `until` pending so
    // nextArrivalAt() always reflects the true next event.
    while (!openDone_ && (!hasPending() || frontier_ <= until)) {
        const TimeNs gap =
            spec_.uniformArrivals
                ? 1e9 / spec_.ratePerSec
                : -std::log1p(-rng_.uniform()) * 1e9 /
                      spec_.ratePerSec;
        frontier_ += gap;
        if (frontier_ > durationNs_) {
            openDone_ = true;
            return;
        }
        push(frontier_);
    }
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
    refill(until);
    if (head_ == fifo_.size() || fifo_[head_].arriveNs > until)
        return false;
    out = fifo_[head_++];
    return true;
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
