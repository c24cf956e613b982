/**
 * @file
 * Discrete-event serving simulation (see simulator.hh).
 *
 * The clock advances through a binary heap of (time, kind, device)
 * events plus the LoadGen arrival stream. Its reference semantics is
 * a per-tick polling scan of the whole pool — completions in device
 * order, then arrivals, then batching decisions — which the event
 * engine reproduces bit for bit (tests/golden/serve_outcomes.golden
 * pins the outcomes):
 *  - Every scheduled instant (freeAt, wakeAt) is >= the clock when
 *    scheduled, so events always fire at t == now, and the heap's
 *    (time, kind, device) order reproduces the polling phases.
 *  - The policy is re-offered exactly the devices whose decision
 *    inputs may have changed: devices that completed, idle devices
 *    that received an arrival, devices whose wake deadline fired,
 *    and — on every pass whose start-of-pass may-arrive signal is
 *    false, or when the drain flag flips — every waiting device.
 *    Skipping waiters on a true-signal pass is unobservable: no
 *    device waits under a false per-offer signal (every policy
 *    flushes when the prefix cannot grow), the signal's pending
 *    term is constant across a decision pass and its busy term
 *    only grows mid-pass, so a skipped waiter would re-decide the
 *    same wait. A false-signal pass must re-offer, though: a
 *    waiter may exist because an earlier device's dispatch in the
 *    previous pass raised the busy term at its turn.
 */

#include "serve/simulator.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "serve/engine.hh"
#include "serve/memo.hh"
#include "workloads/workload.hh"

namespace pluto::serve
{

namespace
{

/**
 * The canonical LUT used to express kernel demand in query waves: a
 * full 8-bit-in/8-bit-out table (256 rows), the shape of the paper's
 * throughput workloads.
 */
constexpr const char *kCanonicalLut = "colorgrade";

/**
 * The serving state of one pool device. Batches charge on the cell's
 * shared executor device with this slot's LUT residency injected.
 */
struct PoolSlot
{
    /** FIFO queue handle into the cell's shared RequestPool. */
    RequestPool::Queue queue;
    /** In-service batch (empty when idle); grow-only capacity. */
    std::vector<Request> inFlight;
    bool busy = false;
    /** LUT residency of this device (the memo signature's state). */
    bool resident = false;
    TimeNs freeAt = 0.0;
    /** Policy deadline while waiting (kNever = event-driven only). */
    TimeNs wakeAt = kNever;
    TimeNs busyNs = 0.0;
    double energyPj = 0.0;
    /** When the device last became idle (phase attribution). */
    TimeNs availAt = 0.0;
    /** Snapshot of the in-service batch, taken at dispatch: the
     *  dispatch instant, the availAt it saw, and the batch service
     *  time split into reload / tFAW-stall / execution. */
    TimeNs batchDispatchNs = 0.0;
    TimeNs batchAvailNs = 0.0;
    double batchReloadNs = 0.0;
    double batchTfawNs = 0.0;
    double batchExecNs = 0.0;
    /** Occurrences of each memo entry on this device, by entry id:
     *  the end-of-run device counter fold is bundle-delta x count. */
    std::vector<u64> entryCounts;
};

} // namespace

TimeNs
ServeSimulator::waveTime(const runtime::DeviceConfig &cfg)
{
    runtime::PlutoDevice dev(cfg);
    const auto lut = dev.loadLut(kCanonicalLut);
    // Warm once: BSA/GMC pay a one-time cold LUT load the steady
    // state never sees.
    dev.lutOpTimedOnly(lut, 1, 1);
    dev.resetStats();
    dev.lutOpTimedOnly(lut, 1, 1);
    return dev.stats().timeNs;
}

ClassDemand
ServeSimulator::calibrate(const runtime::DeviceConfig &cfg,
                          const RequestClass &cls, TimeNs waveNs)
{
    const auto w = workloads::createWorkload(cls.workload);
    PLUTO_ASSERT(w != nullptr);
    runtime::PlutoDevice dev(cfg);
    const auto res = w->run(dev, cls.elements, cls.seed);

    ClassDemand d;
    d.serviceNs = res.timeNs;
    d.hostNs = res.hostNs;
    d.kernelNs = std::max(0.0, res.timeNs - res.hostNs);
    d.waves = std::max<u64>(
        1, static_cast<u64>(std::llround(d.kernelNs / waveNs)));
    d.verified = res.verified;
    return d;
}

ServeSimulator::ServeSimulator(const sim::DeviceSpec &variant,
                               const sim::ServiceSpec &spec,
                               std::vector<RequestClass> mix)
    : variant_(variant), spec_(spec), mix_(std::move(mix))
{
    PLUTO_ASSERT(!mix_.empty());
}

Calibration
ServeSimulator::calibrateAll(const runtime::DeviceConfig &cfg,
                             const std::vector<RequestClass> &mix)
{
    Calibration cal;
    cal.waveNs = waveTime(cfg);
    cal.verified = true;
    cal.demands.reserve(mix.size());
    for (const auto &cls : mix) {
        cal.demands.push_back(calibrate(cfg, cls, cal.waveNs));
        cal.verified = cal.verified && cal.demands.back().verified;
    }
    return cal;
}

ServiceOutcome
ServeSimulator::run(const Calibration *cal, BatchMemo *extMemo,
                    ArrivalDriver arrivals) const
{
    // ---- Calibration: demand model per class, wave law once ----
    Calibration local;
    if (!cal) {
        local = calibrateAll(variant_.config, mix_);
        cal = &local;
    }
    PLUTO_ASSERT(cal->demands.size() == mix_.size());
    const std::vector<ClassDemand> &demand = cal->demands;
    const bool verified = cal->verified;

    // ---- Executor device and pool slots ----
    // A batch's charge depends only on (class, size, residency) (see
    // memo.hh), so one executor device serves the whole pool and the
    // slots are plain state records. The pool's devices all run the
    // same warm-up: run it once and report it once per slot.
    auto *tr = obs::tracer();
    runtime::PlutoDevice exec(variant_.config);
    if (tr)
        exec.scheduler().setTraceLimit(4096);
    const runtime::LutHandle lut = exec.loadLut(kCanonicalLut);
    core::LutPlacement &placement =
        exec.controller().lutPlacement(lut.reg);
    // Warm the LUT residency, then zero the scheduler so busy time
    // starts from the virtual epoch.
    exec.lutOpTimedOnly(lut, 1, 1);
    std::vector<PoolSlot> pool(spec_.devices);
    for (auto &d : pool)
        d.resident = placement.loaded;
    std::vector<u64> tracks;
    if (tr) {
        // One virtual-time track per pool device. Warmup commands
        // (the cold pluto.lut_load above) render at negative
        // timestamps so the serving timeline still starts at 0.
        const TimeNs warmEnd = exec.scheduler().elapsed();
        for (u32 i = 0; i < spec_.devices; ++i) {
            const u64 track = tr->newVirtualTrack(
                spec_.name + "/" + variant_.name + " dev" +
                std::to_string(i));
            for (const auto &ev : exec.scheduler().trace())
                tr->virtualSpan(track, "warmup/" + ev.name,
                                ev.start - warmEnd,
                                ev.end - ev.start);
            tracks.push_back(track);
        }
    }
    // Warmup commands (LUT load + first wave) are real device work:
    // fold them into the counter hierarchy once per device, one
    // absorb each so the sums round exactly as P devices' would.
    if (auto *sh = obs::shard()) {
        const StatSet warm = exec.stats().counters;
        for (u32 i = 0; i < spec_.devices; ++i)
            sh->absorb("device", warm);
    }
    exec.resetStats();
    const u32 salp = exec.salp();
    // A request cannot occupy more lock-step lanes than the device
    // has; charging phantom lanes would inflate energy and tFAW
    // pressure for hardware that does not exist.
    u32 lanes = spec_.lanes;
    if (lanes > salp) {
        warn("service '%s': lanes=%u exceeds device SALP %u of "
             "variant '%s'; clamping to %u",
             spec_.name.c_str(), lanes, salp, variant_.name.c_str(),
             salp);
        lanes = salp;
    }
    const u32 gang = std::max(1u, salp / lanes);

    const auto policy = BatchPolicy::make(spec_);
    LoadGen gen(spec_, mix_, arrivals);
    ServiceMetrics metrics(MetricsConfig::from(spec_, mix_));

    // Request queues live in one chunked pool on the worker's
    // scratch arena: steady-state enqueue/dispatch recycles chunks
    // without touching the allocator. Standalone cells (tests,
    // benches) fall back to a private arena.
    ScratchArena privateArena;
    RequestPool rpool(variant_.config.arena ? *variant_.config.arena
                                            : privateArena);

    // Incremental pool accounting: total queued (not yet
    // dispatched) requests, and busy devices.
    u64 depth = 0;
    u32 busyCount = 0;

    EventQueue evq;
    u64 evFired = 0;
    u64 evCoalesced = 0;

    // ---- Batch-signature memo (see memo.hh). The signature table
    // is maintained identically in every memo mode — hits, misses,
    // entries and the verify schedule are properties of the
    // signature stream, so telemetry and the device counter fold
    // stay byte-identical across on / off / verify. ----
    const sim::MemoMode memoMode = spec_.memo;
    BatchMemo localMemo;
    BatchMemo &memo = extMemo ? *extMemo : localMemo;
    u64 memoHits = 0;
    u64 memoMisses = 0;
    u64 memoVerifyChecks = 0;

    // Serve `n` queued requests (a same-class prefix) on `d` at
    // `now`; returns when the device frees.
    const auto startBatch = [&](PoolSlot &d, u32 n, TimeNs now) {
        const u32 dev = static_cast<u32>(&d - pool.data());
        const u32 cls = rpool.front(d.queue).cls;
        const ClassDemand &dem = demand[cls];

        // Signature: class, batch size, and the LUT residency the
        // batch starts from — the only device state the charge
        // depends on (the paper's Figure-11 reload cost). The
        // variant descriptor and gang law are constant per cell, so
        // they live in the cell identity, not the key.
        const u64 sig = BatchMemo::signature(cls, n, d.resident);
        i64 idx = memo.find(sig);
        const bool miss = idx < 0;
        bool verifySample = false;
        if (miss) {
            ++memoMisses;
        } else {
            ++memoHits;
            // Deterministic 1-in-N verification schedule (hits 1,
            // 1+N, ...), counted in every mode so telemetry is
            // mode-invariant; only verify mode re-executes.
            if (memoHits % BatchMemo::kVerifyEveryN == 1) {
                ++memoVerifyChecks;
                verifySample = true;
            }
        }

        const bool execute =
            miss || memoMode == sim::MemoMode::Off ||
            (memoMode == sim::MemoMode::Verify && verifySample);
        BatchBundle fresh;
        if (execute) {
            // Canonical epoch: every batch charges from a freshly
            // zeroed scheduler and the slot's residency, so the
            // bundle is a pure function of the signature — FP
            // rounding included — and a replay is bit-exact.
            placement.loaded = d.resident;
            exec.resetStats();
            const auto &sched = exec.scheduler();
            // ceil(n / gang) lock-step wave groups through the
            // scheduler's batch fast path; full gangs occupy
            // gang*lanes SALP lanes, the remainder group only what
            // it needs.
            const u32 full = n / gang;
            const u32 rem = n % gang;
            if (full > 0)
                exec.lutOpTimedOnly(lut, dem.waves * full,
                                    gang * lanes);
            if (rem > 0)
                exec.lutOpTimedOnly(lut, dem.waves, rem * lanes);
            if (dem.hostNs > 0.0)
                exec.hostWork(dem.hostNs * n);
            fresh.serviceNs = sched.elapsed();
            fresh.energyPj = sched.energyTotal();
            // Decompose the batch's service time for tail
            // attribution: the scheduler accounts reload latency
            // and tFAW stalls disjointly, so execution is the
            // exact remainder.
            fresh.reloadNs =
                sched.stats().get("pluto.lut_reload.ns");
            fresh.tfawNs =
                sched.stats().get("dram.tfaw_stall.ns");
            fresh.residentAfter = placement.loaded;
            if (miss || verifySample) {
                fresh.counters = sched.stats();
                fresh.trace = sched.trace();
            } else if (tr) {
                fresh.trace = sched.trace();
            }
            if (miss)
                idx = static_cast<i64>(
                    memo.insert(sig, std::move(fresh)));
            else if (memoMode == sim::MemoMode::Verify &&
                     verifySample &&
                     !bundleEquals(
                         fresh,
                         memo.entry(static_cast<u32>(idx))
                             .bundle))
                panic("service '%s' variant '%s': memo verify "
                      "mismatch (class %u, batch %u, resident %d): "
                      "cached bundle differs from the re-executed "
                      "oracle",
                      spec_.name.c_str(), variant_.name.c_str(),
                      cls, n, d.resident ? 1 : 0);
        }
        const BatchBundle &b =
            (!miss && memoMode == sim::MemoMode::Off)
                ? fresh
                : memo.entry(static_cast<u32>(idx)).bundle;
        // A replay advances the residency state machine exactly as
        // the execution it stands in for would have.
        d.resident = b.residentAfter;

        const TimeNs serviceNs = b.serviceNs;
        if (tr) {
            // Bundle trace events are epoch-relative (each batch
            // charges from scheduler time 0), so they map onto the
            // virtual clock by plain offset.
            tr->virtualSpan(
                tracks[dev], mix_[cls].workload, now, serviceNs,
                {obs::argNum("batch", static_cast<double>(n)),
                 obs::argNum("class", static_cast<double>(cls))});
            for (const auto &ev : b.trace)
                tr->virtualSpan(tracks[dev], ev.name, now + ev.start,
                                ev.end - ev.start);
        }
        d.busy = true;
        d.wakeAt = kNever;
        d.freeAt = now + serviceNs;
        evq.schedule(d.freeAt, EvKind::DeviceFree, dev);
        d.busyNs += serviceNs;
        d.energyPj += b.energyPj;
        d.batchDispatchNs = now;
        d.batchAvailNs = d.availAt;
        d.batchReloadNs = b.reloadNs;
        d.batchTfawNs = b.tfawNs;
        d.batchExecNs =
            std::max(0.0, serviceNs - b.reloadNs - b.tfawNs);
        if (d.entryCounts.size() <= static_cast<std::size_t>(idx))
            d.entryCounts.resize(static_cast<std::size_t>(idx) + 1, 0);
        ++d.entryCounts[static_cast<std::size_t>(idx)];
        d.inFlight.clear();
        d.inFlight.reserve(n);
        rpool.forEach(d.queue, n, [&](const Request &r) {
            d.inFlight.push_back(r);
        });
        rpool.popFront(d.queue, n);
        depth -= n;
        ++busyCount;
        metrics.onBatch(now, n, busyCount, serviceNs);
    };

    // Deliver the finished batch of `d`: per-request phase
    // attribution, metrics, and closed-loop re-arming. @return the
    // number of requests completed.
    const auto completeBatch = [&](PoolSlot &d) {
        d.busy = false;
        --busyCount;
        d.availAt = d.freeAt;
        for (const auto &r : d.inFlight) {
            // The wait splits at the instant the device became
            // free: before it is queue wait (device busy with
            // earlier work), after it is batch wait (the policy
            // holding an idle device). The batch's service-time
            // decomposition is shared by every request in it, so
            // the five phases sum exactly to the latency.
            const TimeNs waitNs = d.batchDispatchNs - r.arriveNs;
            const TimeNs qw = std::min(
                waitNs,
                std::max(0.0, d.batchAvailNs - r.arriveNs));
            PhaseBreakdownNs ph;
            ph.ns[static_cast<u32>(Phase::QueueWait)] = qw;
            ph.ns[static_cast<u32>(Phase::BatchWait)] =
                std::max(0.0, waitNs - qw);
            ph.ns[static_cast<u32>(Phase::LutReload)] =
                d.batchReloadNs;
            ph.ns[static_cast<u32>(Phase::TfawStall)] =
                d.batchTfawNs;
            ph.ns[static_cast<u32>(Phase::Exec)] = d.batchExecNs;
            metrics.onComplete(r, d.freeAt, ph);
            gen.onComplete(r, d.freeAt);
        }
        const u64 done = d.inFlight.size();
        d.inFlight.clear();
        return done;
    };

    // Offer `d`'s queue to the batching policy at `now`. @return the
    // dispatched batch size (0 = the policy waits).
    const auto decide = [&](PoolSlot &d, TimeNs now, bool drain,
                            bool mayArrive) -> u32 {
        QueueView v;
        v.eligible =
            static_cast<u32>(rpool.eligiblePrefix(d.queue));
        v.depth = static_cast<u32>(d.queue.size);
        v.oldestArriveNs = rpool.front(d.queue).arriveNs;
        // The prefix can still grow only if it spans the whole
        // queue and the source may yet produce arrivals.
        v.canGrow = !drain && mayArrive && v.eligible == v.depth;
        const auto dec = policy->decide(v, now);
        if (dec.take > 0) {
            const u32 n = std::min(dec.take, v.eligible);
            startBatch(d, n, now);
            return n;
        }
        d.wakeAt = dec.wakeAt;
        return 0;
    };

    // ---- Event engine: heap-scheduled completions and wake-ups,
    // indexed dispatch, dirty-set policy offers. ----
    const auto loopT0 = std::chrono::steady_clock::now();
    LoadIndex loads(spec_.devices);
    // Devices whose policy inputs changed since their last offer;
    // deduplicated, decided in device-index order.
    std::vector<u32> dirty;
    std::vector<u8> inDirty(spec_.devices, 0);
    const auto markDirty = [&](u32 dev) {
        if (!inDirty[dev]) {
            inDirty[dev] = 1;
            dirty.push_back(dev);
        }
    };
    // Devices whose last policy offer decided to wait, lazily
    // pruned: re-offering them is O(waiters), not O(P).
    // Invariant: inWaiters[i] <=> i is in the list.
    std::vector<u32> waiters;
    std::vector<u8> inWaiters(spec_.devices, 0);
    const auto markWaiting = [&]() {
        std::size_t keep = 0;
        for (const u32 w : waiters) {
            if (!pool[w].busy && pool[w].queue.size > 0) {
                markDirty(w);
                waiters[keep++] = w; // waiting until re-decided
            } else {
                inWaiters[w] = 0; // dispatched or drained since
            }
        }
        waiters.resize(keep);
    };
    // Drop events that no longer match their device's state
    // (superseded wake deadlines) off the top of the heap.
    const auto purgeStale = [&]() {
        while (!evq.empty()) {
            const Ev &e = evq.top();
            const PoolSlot &d = pool[e.dev];
            const bool valid = e.kind == EvKind::DeviceFree
                                   ? d.busy && d.freeAt == e.t
                                   : !d.busy && d.queue.size > 0 &&
                                         d.wakeAt == e.t;
            if (valid)
                return;
            ++evCoalesced;
            evq.pop();
        }
    };
    const auto mayArriveNow = [&](bool drain) {
        return gen.hasPending() ||
               (spec_.closedLoop && !drain && busyCount > 0);
    };

    bool drain = false;
    TimeNs now = 0.0;
    u32 stalled = 0;
    Request next;
    for (;;) {
        u64 progressed = 0;
        purgeStale();
        const TimeNs t = std::min(gen.nextArrivalAt(),
                                  evq.empty() ? kNever : evq.top().t);
        if (t == kNever) {
            // Nothing scheduled. Any queued leftovers are policies
            // waiting for arrivals that will never come: flush them.
            if (depth == 0 || drain)
                break;
            drain = true;
            ++progressed; // entering drain mode is progress
            markWaiting();
        } else {
            now = std::max(now, t);
        }

        // 1. Due events: completions first, in device order — the
        //    heap's (t, kind, dev) order guarantees it.
        while (!evq.empty() && evq.top().t <= now) {
            const Ev e = evq.top();
            evq.pop();
            PoolSlot &d = pool[e.dev];
            if (e.kind == EvKind::DeviceFree) {
                if (!d.busy || d.freeAt != e.t) {
                    ++evCoalesced;
                    continue;
                }
                ++evFired;
                progressed += completeBatch(d);
                loads.update(e.dev, d.queue.size);
                if (d.queue.size > 0)
                    markDirty(e.dev);
            } else {
                if (d.busy || d.queue.size == 0 || d.wakeAt != e.t) {
                    ++evCoalesced;
                    continue;
                }
                ++evFired;
                d.wakeAt = kNever; // consumed
                markDirty(e.dev);
            }
        }

        // 2. Arrivals: least-loaded dispatch (ties to the lowest
        //    device index), incrementally maintained queue depth.
        while (gen.poll(now, next)) {
            const u32 dev = loads.leastLoaded();
            PoolSlot &d = pool[dev];
            rpool.pushBack(d.queue, next);
            loads.update(dev, d.queue.size + d.inFlight.size());
            ++depth;
            ++progressed;
            metrics.onArrival(next.arriveNs);
            metrics.onQueueDepth(next.arriveNs, depth);
            if (!d.busy)
                markDirty(dev);
        }

        // 3. Batching decisions for devices whose inputs changed,
        //    in device-index order. A false start-of-pass
        //    may-arrive signal re-offers every waiter (see the
        //    equivalence sketch in the file comment).
        if (!mayArriveNow(drain))
            markWaiting();
        if (dirty.size() > 1)
            std::sort(dirty.begin(), dirty.end());
        for (const u32 idx : dirty) {
            inDirty[idx] = 0;
            PoolSlot &d = pool[idx];
            if (d.busy || d.queue.size == 0)
                continue;
            const TimeNs prevWake = d.wakeAt;
            if (decide(d, now, drain, mayArriveNow(drain)) > 0) {
                ++progressed;
            } else {
                if (!inWaiters[idx]) {
                    inWaiters[idx] = 1;
                    waiters.push_back(idx);
                }
                if (d.wakeAt != kNever) {
                    if (d.wakeAt != prevWake)
                        evq.schedule(d.wakeAt, EvKind::PolicyWake,
                                     idx);
                    else
                        ++evCoalesced; // deadline already queued
                }
            }
        }
        dirty.clear();

        // A policy whose deadline test disagrees with its own
        // wakeAt could pin the clock; fail loudly instead of
        // spinning.
        stalled = progressed ? 0 : stalled + 1;
        if (stalled > 8)
            panic("serving event loop stalled at t=%.3f ms "
                  "(policy wakeAt never dispatches)",
                  now * 1e-6);
    }
    const double loopHostMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - loopT0)
            .count();

    TimeNs busyNs = 0.0;
    double energyPj = 0.0;
    for (const auto &d : pool) {
        busyNs += d.busyNs;
        energyPj += d.energyPj;
    }
    ServiceOutcome outcome =
        metrics.finish(spec_.devices, busyNs, energyPj, verified);
    outcome.loopHostMs = loopHostMs;
    if (auto *sh = obs::shard()) {
        sh->inc("serve/cells");
        sh->add("serve/requests",
                static_cast<double>(outcome.requests));
        sh->add("serve/batches",
                static_cast<double>(outcome.batches));
        sh->add("serve/busy_ns", busyNs);
        sh->add("serve/energy_pj", energyPj);
        sh->gaugeMax("serve/pool_devices",
                     static_cast<double>(spec_.devices));
        sh->add("serve/events/scheduled",
                static_cast<double>(evq.scheduled()));
        sh->add("serve/events/fired", static_cast<double>(evFired));
        sh->add("serve/events/coalesced",
                static_cast<double>(evCoalesced));
        sh->gaugeMax("serve/events/heap_peak",
                     static_cast<double>(evq.peak()));
        if (outcome.sloGood + outcome.sloViolations > 0) {
            sh->add("serve/slo/good",
                    static_cast<double>(outcome.sloGood));
            sh->add("serve/slo/violations",
                    static_cast<double>(outcome.sloViolations));
        }
        sh->hist("serve/latency_ms").merge(outcome.latHist);
        sh->add("serve/memo/hits", static_cast<double>(memoHits));
        sh->add("serve/memo/misses",
                static_cast<double>(memoMisses));
        sh->add("serve/memo/entries",
                static_cast<double>(memo.entries().size()));
        sh->add("serve/memo/verify_checks",
                static_cast<double>(memoVerifyChecks));
        sh->gaugeMax("serve/memo/bytes",
                     static_cast<double>(memo.approxBytes()));
        // Device counters: fold each device's per-entry occurrence
        // counts as bundle-delta x count in first-seen entry order.
        // The sequential per-batch sum would drift in ulps between
        // executed and replayed runs; this fold is bit-identical
        // across memo modes by construction.
        StatSet folded;
        for (const auto &d : pool) {
            folded.clear();
            for (std::size_t ei = 0; ei < d.entryCounts.size(); ++ei) {
                if (d.entryCounts[ei] == 0)
                    continue;
                const double k = static_cast<double>(d.entryCounts[ei]);
                for (const auto &[name, value] :
                     memo.entries()[ei].bundle.counters.counters())
                    folded.add(name, value * k);
            }
            sh->absorb("device", folded);
        }
    }
    return outcome;
}

} // namespace pluto::serve
