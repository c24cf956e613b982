/**
 * @file
 * Command-stream timing and energy accounting.
 *
 * Following the paper's methodology (Section 7.1: "Our simulator
 * estimates the performance of pLUTo operations by parsing the
 * sequence of memory commands required to perform them and enforcing
 * the memory's timing parameters"), the scheduler consumes an ordered
 * stream of DRAM operations and tracks elapsed time, consumed energy,
 * and per-command counters. Activations pass through a tFAW sliding-
 * window tracker (at most four ACTs per window per rank, Section 8.7);
 * the window can be scaled from 0% (unthrottled, the paper's default
 * configuration in Table 3) to 100% (nominal) for the Figure 13 sweep.
 */

#ifndef PLUTO_DRAM_SCHEDULER_HH
#define PLUTO_DRAM_SCHEDULER_HH

#include <array>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"
#include "dram/timing.hh"

namespace pluto::dram
{

/**
 * Sliding-window tFAW tracker: at most 4 row activations may issue in
 * any tFAW-long window. A window of 0 disables the constraint.
 *
 * State is a fixed 4-slot ring (the window never needs more than the
 * last four issue times), so reserve() is allocation-free and
 * reserveBatch() runs a tight scalar loop: one max and one add per
 * ACT, the information-theoretic minimum for results bit-identical to
 * issuing the ACTs one by one.
 */
class FawTracker
{
  public:
    explicit FawTracker(TimeNs t_faw);

    /**
     * Reserve one ACT issue slot no earlier than `candidate`.
     * @return the actual issue time.
     */
    TimeNs reserve(TimeNs candidate);

    /**
     * Reserve `count` back-to-back ACT slots starting no earlier than
     * `candidate` (each subsequent ACT's candidate is its
     * predecessor's issue time). Bit-identical to `count` successive
     * reserve() calls. @return the issue time of the last ACT.
     */
    TimeNs reserveBatch(TimeNs candidate, u64 count);

    /** Forget all recorded activations. */
    void reset();

    /** @return the tracked window length. */
    TimeNs window() const { return tFaw_; }

  private:
    TimeNs tFaw_;
    /** Ring of the most recent ACT issue times, oldest at `head_`. */
    std::array<TimeNs, 4> acts_{};
    u32 head_ = 0;
    u32 count_ = 0;
};

/** One recorded command event (optional tracing). */
struct TraceEvent
{
    std::string name;
    TimeNs start = 0.0;
    TimeNs end = 0.0;
};

/**
 * One DRAM command of a burst (see CommandScheduler::burst): either a
 * serial op (isSweep false; latency / energy / numActs / parallel as
 * in CommandScheduler::op) or a row sweep (isSweep true; latency /
 * energy are the per-row step values, rows / tailLatency / tailEnergy
 * as in CommandScheduler::sweep).
 */
struct BurstStep
{
    const char *stat = "";
    bool isSweep = false;
    /** op latency, or sweep step latency. */
    TimeNs latency = 0.0;
    /** op energy per unit, or sweep step energy. */
    EnergyPj energy = 0.0;
    /** op only: row activations per participating subarray. */
    u32 numActs = 0;
    /** sweep only: consecutive activations per lane. */
    u32 rows = 0;
    u32 parallel = 1;
    /** sweep only: trailing latency (e.g. the final PRE). */
    TimeNs tailLatency = 0.0;
    /** sweep only: trailing energy. */
    EnergyPj tailEnergy = 0.0;
};

/**
 * Serial command-stream scheduler. All pLUTo ISA instructions expand
 * into calls on this interface; elapsed() and energy() then give the
 * end-to-end execution time and energy of the program.
 */
class CommandScheduler
{
  public:
    /**
     * @param timing Timing preset.
     * @param energy Energy preset.
     * @param faw_scale Fraction of the nominal tFAW to enforce:
     *        0.0 = unthrottled (paper default), 1.0 = nominal.
     */
    CommandScheduler(const TimingParams &timing, const EnergyParams &energy,
                     double faw_scale = 0.0);

    /**
     * A serial DRAM operation executed simultaneously on `parallel`
     * subarrays: a one-command burst(). Time advances once by
     * `latency` after the `num_acts * parallel` activations clear the
     * tFAW window; energy and ACT counts scale with `parallel`.
     *
     * @param stat Counter name (e.g. "cmd.aap").
     * @param latency Operation latency in ns.
     * @param energy_per_unit Energy per participating subarray, pJ.
     * @param num_acts Row activations per participating subarray.
     * @param parallel Number of subarrays operating in lock-step.
     */
    void
    op(const char *stat, TimeNs latency, EnergyPj energy_per_unit,
       u32 num_acts = 0, u32 parallel = 1)
    {
        burst(BurstStep{.stat = stat, .latency = latency,
                        .energy = energy_per_unit, .numActs = num_acts,
                        .parallel = parallel});
    }

    /**
     * A pLUTo Row Sweep, a one-command burst(): `num_rows`
     * consecutive activations in each of `parallel` subarrays, with
     * `step_latency` between consecutive activations and an optional
     * trailing `tail_latency` (e.g. the single final PRE of
     * pLUTo-GSA/GMC sweeps).
     */
    void
    sweep(const char *stat, u32 num_rows, TimeNs step_latency,
          EnergyPj step_energy, u32 parallel, TimeNs tail_latency = 0.0,
          EnergyPj tail_energy = 0.0)
    {
        burst(BurstStep{.stat = stat, .isSweep = true,
                        .latency = step_latency, .energy = step_energy,
                        .rows = num_rows, .parallel = parallel,
                        .tailLatency = tail_latency,
                        .tailEnergy = tail_energy});
    }

    /**
     * Account `reps` repetitions of the `steps` command group, in
     * order. This is the scheduler's one arithmetic body: op(),
     * sweep() and the batch fast path all advance time, energy and
     * the tFAW window here, so `reps` repetitions are bit-identical
     * to `reps` one-rep calls in elapsed(), energyTotal(), tFAW state
     * and every integer counter. Stats are committed once per step
     * (O(1) per burst, not O(reps) string/map operations); the one
     * permitted divergence is that per-step ".ns" counter sums may
     * differ from a one-rep loop in the final ulp (a single product
     * replaces `reps` accumulations).
     *
     * Tracing records one span per call, named after the first step.
     * A one-rep burst of a single op spans from the op's issue time,
     * after its tFAW wait; every other burst (a sweep, a group, or
     * `reps` > 1) spans from the call, so its tFAW stalls are inside.
     */
    void burst(std::span<const BurstStep> steps, u64 reps);

    /** One-rep burst of a single command. */
    void burst(const BurstStep &step) { burst({&step, 1}, 1); }

    /**
     * Host-side (CPU) serial time, e.g. the CRC reduction step that
     * cannot execute in DRAM (Section 8.2).
     */
    void hostTime(TimeNs latency, EnergyPj energy = 0.0);

    /** @return current end-of-stream time. */
    TimeNs elapsed() const { return now_; }

    /** @return total consumed energy. */
    EnergyPj energyTotal() const { return energy_; }

    /** @return mutable command counters. */
    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    /** @return the timing preset in use. */
    const TimingParams &timing() const { return timing_; }

    /** @return the energy preset in use. */
    const EnergyParams &energyParams() const { return energyParams_; }

    /** Reset time, energy, counters and the tFAW window. */
    void reset();

    /**
     * Model refresh interference: every DRAM command stretches by
     * 1 / (1 - tRFC/tREFI) (~4.7% for DDR4). Off by default, as in
     * the paper's evaluation; the ablation bench quantifies it.
     */
    void setModelRefresh(bool on) { modelRefresh_ = on; }

    /** @return whether refresh interference is modeled. */
    bool modelRefresh() const { return modelRefresh_; }

    /**
     * Record up to `limit` command events for inspection (0 disables
     * tracing). Events past the limit are counted but dropped.
     */
    void setTraceLimit(std::size_t limit);

    /** @return recorded command events, in issue order. */
    const std::vector<TraceEvent> &trace() const { return trace_; }

  private:
    /** Refresh-adjusted DRAM latency. */
    TimeNs stretched(TimeNs latency) const;

    void record(const char *name, TimeNs start, TimeNs end);

    TimingParams timing_;
    EnergyParams energyParams_;
    FawTracker faw_;
    TimeNs now_ = 0.0;
    EnergyPj energy_ = 0.0;
    StatSet stats_;
    bool modelRefresh_ = false;
    std::size_t traceLimit_ = 0;
    std::vector<TraceEvent> trace_;
};

} // namespace pluto::dram

#endif // PLUTO_DRAM_SCHEDULER_HH
