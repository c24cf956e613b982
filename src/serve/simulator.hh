/**
 * @file
 * ServeSimulator: a deterministic discrete-event serving simulation
 * of one (device variant, service spec) cell, layered on the real
 * pLUTo device stack.
 *
 * Model:
 *  - Every request class is *calibrated* by running its workload once
 *    on a scratch PlutoDevice built with the variant's configuration:
 *    the run's simulated time splits into a serial host portion and a
 *    DRAM kernel portion, and the kernel is expressed as an integer
 *    number of canonical LUT-query waves (the wave time is measured
 *    on the same configuration), so serving charges flow through the
 *    real command scheduler.
 *  - A pool of `devices` devices, each with a FIFO queue; arrivals
 *    dispatch to the least-loaded queue. The devices are identical
 *    and a batch's charge depends only on (class, batch size, LUT
 *    residency) (see memo.hh), so the cell builds one executor
 *    PlutoDevice and keeps each pool device as a state record
 *    (queue, busy/free instants, residency). Serving a batch of k
 *    same-class requests charges the executor's scheduler, with the
 *    slot's residency injected, via PlutoDevice::lutOpTimedOnly —
 *    i.e. the scheduler's batch fast path
 *    (QueryEngine::queryTimedOnlyBatch submitting one
 *    CommandScheduler::burst) — as ceil(k / gang) wave groups, where
 *    gang = max(1, device SALP / `lanes`) requests share one
 *    lock-step wave (Section 5.5 subarray-level parallelism). The
 *    serial host portion is charged per request. The batch's service
 *    time and energy are the scheduler's elapsed/energy deltas; they
 *    advance the global virtual clock. Pool setup is O(1) in P
 *    apart from the slot records.
 *  - Batching therefore trades queueing delay for wave sharing: on a
 *    device with SALP headroom (salp > lanes) a full gang serves k
 *    requests in one wave group's time, raising capacity; without
 *    headroom (gang = 1) batching only amortizes queue wakeups.
 *
 *  - The loop is a discrete-event engine (serve/engine.hh):
 *    completions and policy wake-ups flow through a timestamped
 *    binary heap ordered by (time, event kind, device index),
 *    arrivals stream from LoadGen, dispatch picks the least-loaded
 *    device from per-load-level bitmaps, and only devices whose
 *    queue state changed are re-offered to the batching policy —
 *    O((R + E) log E) total.
 *
 * Determinism: arrivals, mix draws, dispatch, batching and charging
 * are all pure functions of (variant config, service spec, mix), so
 * a cell's ServiceOutcome is bit-identical across host thread
 * counts, shards and cache replays.
 */

#ifndef PLUTO_SERVE_SIMULATOR_HH
#define PLUTO_SERVE_SIMULATOR_HH

#include "serve/loadgen.hh"
#include "serve/metrics.hh"
#include "serve/policy.hh"

namespace pluto::serve
{

class BatchMemo;

/** Calibrated demand of one request class on one variant. */
struct ClassDemand
{
    /** Solo end-to-end simulated time of one request, ns. */
    TimeNs serviceNs = 0.0;
    /** Serial host portion (never batched), ns. */
    TimeNs hostNs = 0.0;
    /** DRAM kernel portion (serviceNs - hostNs), ns. */
    TimeNs kernelNs = 0.0;
    /** Kernel expressed in canonical LUT-query waves (>= 1). */
    u64 waves = 1;
    /** Calibration run passed functional verification. */
    bool verified = false;
};

/** Calibrated demand model of one (variant config, mix) pair. */
struct Calibration
{
    /** Canonical single-wave time of the configuration, ns. */
    TimeNs waveNs = 0.0;
    /** Per-class demands, indexed like the mix. */
    std::vector<ClassDemand> demands;
    /** Every calibration run passed functional verification. */
    bool verified = false;
};

/** One (variant, service) serving simulation. */
class ServeSimulator
{
  public:
    /**
     * @param variant Device variant the pool is built from.
     * @param spec    Service experiment to run.
     * @param mix     Request mix (see buildMix); must be non-empty.
     */
    ServeSimulator(const sim::DeviceSpec &variant,
                   const sim::ServiceSpec &spec,
                   std::vector<RequestClass> mix);

    /**
     * Execute the simulation. Calibrates the mix itself, or reuses
     * `cal` (from calibrateAll on the same config and mix) — the
     * calibration depends only on (variant config, mix), so sweeps
     * over service parameters share one.
     *
     * Every batch charges from a canonical scheduler epoch and its
     * cost bundle is memoized by (class, size, residency) signature
     * per `spec.memo` (see memo.hh): `on` replays hits in O(1),
     * `off` executes every batch (the oracle), `verify` replays but
     * re-executes a deterministic 1-in-N sample and aborts on any
     * bundle mismatch. Outcomes are bit-identical across all three.
     * `memo` optionally injects a shared signature table (tests);
     * it must come from an identical (variant, spec, mix) cell.
     * `arrivals` picks who draws the open-loop schedule (see
     * LoadGen); it never changes the outcome.
     */
    ServiceOutcome
    run(const Calibration *cal = nullptr, BatchMemo *memo = nullptr,
        ArrivalDriver arrivals = ArrivalDriver::Inline) const;

    /** Calibrate every class of a mix on one configuration. */
    static Calibration
    calibrateAll(const runtime::DeviceConfig &cfg,
                 const std::vector<RequestClass> &mix);

    /** Calibrate one class (exposed for tests and benches). */
    static ClassDemand calibrate(const runtime::DeviceConfig &cfg,
                                 const RequestClass &cls,
                                 TimeNs waveNs);

    /** Measure the canonical wave time of a configuration, ns. */
    static TimeNs waveTime(const runtime::DeviceConfig &cfg);

  private:
    sim::DeviceSpec variant_;
    sim::ServiceSpec spec_;
    std::vector<RequestClass> mix_;
};

} // namespace pluto::serve

#endif // PLUTO_SERVE_SIMULATOR_HH
