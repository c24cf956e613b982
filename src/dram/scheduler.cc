#include "dram/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pluto::dram
{

FawTracker::FawTracker(TimeNs t_faw)
    : tFaw_(t_faw)
{
}

TimeNs
FawTracker::reserve(TimeNs candidate)
{
    if (tFaw_ <= 0.0)
        return candidate;
    TimeNs t = candidate;
    if (count_ == 4) {
        // Full window: delay behind the oldest tracked ACT, then
        // overwrite it in place (it becomes the newest slot).
        t = std::max(t, acts_[head_] + tFaw_);
        acts_[head_] = t;
        head_ = (head_ + 1) & 3;
    } else {
        acts_[(head_ + count_) & 3] = t;
        ++count_;
    }
    return t;
}

TimeNs
FawTracker::reserveBatch(TimeNs candidate, u64 count)
{
    if (count == 0 || tFaw_ <= 0.0)
        return candidate;
    // Chained candidates: ACT i may issue at ACT i-1's slot unless
    // the window forces a delay. The ring makes each step one
    // compare, one max and one store.
    TimeNs last = reserve(candidate);
    for (u64 i = 1; i < count; ++i)
        last = reserve(last);
    return last;
}

void
FawTracker::reset()
{
    head_ = 0;
    count_ = 0;
}

CommandScheduler::CommandScheduler(const TimingParams &timing,
                                   const EnergyParams &energy,
                                   double faw_scale)
    : timing_(timing), energyParams_(energy),
      faw_(timing.tFAW * faw_scale)
{
    if (faw_scale < 0.0 || faw_scale > 1.0)
        fatal("tFAW scale %f out of [0,1]", faw_scale);
}

TimeNs
CommandScheduler::stretched(TimeNs latency) const
{
    return modelRefresh_ ? latency * timing_.refreshStretch() : latency;
}

void
CommandScheduler::record(const char *name, TimeNs start, TimeNs end)
{
    if (traceLimit_ == 0)
        return;
    stats_.inc("trace.events");
    if (trace_.size() < traceLimit_)
        trace_.push_back({name, start, end});
}

void
CommandScheduler::setTraceLimit(std::size_t limit)
{
    traceLimit_ = limit;
    trace_.clear();
    trace_.reserve(std::min<std::size_t>(limit, 4096));
}

void
CommandScheduler::burst(std::span<const BurstStep> steps, u64 reps)
{
    if (steps.empty() || reps == 0)
        return;
    const TimeNs begin = now_;
    // Issue time of the latest op, past its tFAW wait.
    TimeNs issued = begin;
    TimeNs stall = 0.0;
    for (u64 k = 0; k < reps; ++k) {
        for (const BurstStep &st : steps) {
            PLUTO_ASSERT(st.parallel >= 1);
            if (st.isSweep) {
                // All `parallel` subarrays activate their next row in
                // lock-step; each activation reserves a tFAW slot.
                const TimeNs step = stretched(st.latency);
                for (u32 r = 0; r < st.rows; ++r) {
                    const TimeNs last = faw_.reserveBatch(now_, st.parallel);
                    stall += last - now_;
                    now_ = last + step;
                }
                now_ += stretched(st.tailLatency);
                energy_ += (st.energy * st.rows + st.tailEnergy) *
                           st.parallel;
            } else {
                issued = now_;
                // ACT-free ops skip the tFAW tracker. The branch also
                // keeps GCC's code for the reserve loop tight: without
                // it a 250 x 4096-ACT burst ran ~1.8x slower.
                if (st.numActs > 0) {
                    issued = faw_.reserveBatch(
                        now_, static_cast<u64>(st.numActs) * st.parallel);
                    stall += issued - now_;
                }
                now_ = issued + stretched(st.latency);
                energy_ += st.energy * st.parallel;
            }
        }
    }

    // Bookkeeping, once per step. All counter deltas are
    // integer-valued and stay below 2^53, so a single multiplied add
    // equals `reps` unit adds exactly; the ".ns" sums are the one
    // documented ulp-level divergence. tFAW back-pressure (time the
    // window pushed commands past their unconstrained issue points)
    // is absent when unthrottled.
    if (stall > 0.0)
        stats_.add("dram.tfaw_stall.ns", stall);
    const double dreps = static_cast<double>(reps);
    for (const BurstStep &st : steps) {
        stats_.add(st.stat, dreps);
        if (st.isSweep) {
            stats_.add("dram.acts", static_cast<double>(st.rows) *
                                        st.parallel * dreps);
            stats_.add(std::string(st.stat) + ".rows",
                       static_cast<double>(st.rows) * dreps);
        } else {
            if (st.numActs > 0)
                stats_.add("dram.acts", static_cast<double>(st.numActs) *
                                            st.parallel * dreps);
            stats_.add(std::string(st.stat) + ".ns",
                       stretched(st.latency) * dreps);
        }
    }
    const bool loneOp = reps == 1 && steps.size() == 1 &&
                        !steps.front().isSweep;
    record(steps.front().stat, loneOp ? issued : begin, now_);
}

void
CommandScheduler::hostTime(TimeNs latency, EnergyPj energy)
{
    const TimeNs begin = now_;
    now_ += latency;
    energy_ += energy;
    stats_.add("host.ns", latency);
    record("host", begin, now_);
}

void
CommandScheduler::reset()
{
    now_ = 0.0;
    energy_ = 0.0;
    stats_.clear();
    faw_.reset();
    trace_.clear();
}

} // namespace pluto::dram
