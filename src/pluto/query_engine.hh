/**
 * @file
 * The pLUTo LUT Query engine (Section 4.1): bulk-queries a LUT with
 * every slot of a source row, producing a destination row, under one
 * of the three hardware designs.
 *
 * Every query is charged as one Table 1 command group, built in one
 * place (QueryEngine::commandGroup): [LISA-RBM LUT reload,] row sweep,
 * LISA-RBM result move. The paths differ only in how they submit it:
 *  - query()/queryWave(): functional result computed directly
 *    (out[i] = LUT[in[i]]); the group's commands issue one at a time,
 *    so a traced query shows reload, sweep and move spans;
 *  - queryTimedOnlyBatch(): no functional work; `count` queries go
 *    to the scheduler as one burst of the group;
 *  - queryStacked(): one sweep over several LUTs stacked in one
 *    subarray, with the group's reload, sweep and move;
 *  - queryViaSweep(): a microarchitectural emulation that walks the
 *    LUT rows one activation at a time, builds each activated row's
 *    replicated image from the Lut values, evaluates the Match Logic
 *    per slot and latches the FF buffer (BSA) or gates the sense
 *    amplifiers (GSA/GMC). It charges nothing; tests assert it agrees
 *    with query().
 *
 * The engine writes no LUT rows into the module: a placement's Lut
 * values are its contents, and `LutPlacement::loaded` is its only
 * load state (a GSA sweep clears it, a reload sets it).
 *
 * pluto/analysis keeps an independent closed-form Table 1 that tests
 * compare these charges against.
 */

#ifndef PLUTO_PLUTO_QUERY_ENGINE_HH
#define PLUTO_PLUTO_QUERY_ENGINE_HH

#include <array>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.hh"
#include "common/bitvec_bulk.hh"
#include "dram/module.hh"
#include "dram/scheduler.hh"
#include "pluto/design.hh"
#include "pluto/lut_store.hh"

namespace pluto::core
{

/** One (source row, destination row) pair of a query wave. */
using QueryPair = std::pair<dram::RowAddress, dram::RowAddress>;

/** Executes pLUTo LUT Queries against a DRAM module. */
class QueryEngine
{
  public:
    /**
     * @param arena Scratch buffers for the functional paths; pass the
     *        owning device's (worker-owned) arena, or nullptr to use
     *        a private one.
     */
    QueryEngine(dram::Module &mod, dram::CommandScheduler &sched,
                Design design, ScratchArena *arena = nullptr);

    /** @return the hardware design this engine models. */
    Design design() const { return design_; }

    /**
     * Bulk LUT query of one source row into one destination row.
     * Equivalent to queryWave() with a single pair.
     */
    void query(LutPlacement &p, const dram::RowAddress &src,
               const dram::RowAddress &dst);

    /**
     * A wave of LUT queries executed in lock-step across subarray-
     * level-parallel lanes (Section 5.5): functional execution for
     * every pair, timing advanced once with `pairs.size()`-way
     * parallelism.
     */
    void queryWave(LutPlacement &p, const std::vector<QueryPair> &pairs);

    /**
     * Timing/energy-only accounting of `count` query waves of
     * `parallel` lanes each, without functional execution: used by
     * model-scale benches where the parallelism exceeds the
     * materialized module (e.g. the Figure 14 sweep up to 8192
     * subarrays), and the path behind PlutoDevice::lutOpTimedOnly.
     * A cold LUT's first query is charged alone (it pays the reload);
     * the rest go to the scheduler as one CommandScheduler::burst(),
     * so the per-query bookkeeping is O(1) in `count` and the totals
     * are bit-identical to `count` one-query calls.
     */
    void queryTimedOnlyBatch(LutPlacement &p, u32 parallel, u64 count);

    /**
     * Microarchitectural sweep emulation (Figure 3's step-by-step
     * walk). Produces the same destination row as query(); under
     * pLUTo-GSA it leaves the LUT not loaded.
     */
    void queryViaSweep(LutPlacement &p, const dram::RowAddress &src,
                       const dram::RowAddress &dst);

    /**
     * Fused query over multiple LUTs stacked in one pLUTo-enabled
     * subarray (Section 4: "the simultaneous querying of multiple
     * LUTs stored in a single DRAM subarray"). Each source slot's
     * index is pre-offset by its target LUT's base row; a single row
     * sweep over the stacked region serves every LUT at once.
     *
     * All placements must be single-partition, share one subarray,
     * and use the same element width. The stacked region (lowest
     * base row to the end of the highest LUT) is reloaded first when
     * the design reloads every query (GSA) or any stacked placement
     * is not loaded.
     */
    void queryStacked(const std::vector<LutPlacement *> &luts,
                      const dram::RowAddress &src,
                      const dram::RowAddress &dst, u32 parallel = 1);

  private:
    /** A query's commands, in issue order (at most three). */
    struct CommandGroup
    {
        std::array<dram::BurstStep, 3> steps;
        std::size_t size = 0;

        std::span<const dram::BurstStep>
        commands() const
        {
            return {steps.data(), size};
        }
    };

    /**
     * The Table 1 command group of one query wave under this design:
     * when `reload`, a LISA-RBM reload of the `rows` LUT rows in each
     * of `lanes` subarrays; then the sweep of those rows (counted as
     * `sweep_stat`); then the LISA-RBM move of the `parallel` result
     * rows. The only code in the engine that knows what a design
     * charges.
     */
    CommandGroup commandGroup(const char *sweep_stat, u32 rows, u32 lanes,
                              u32 parallel, bool reload) const;

    /**
     * Charge `count` query waves of `p` at `parallel`-way parallelism
     * and update its load state (cold counter, `loaded`,
     * `loadCount`). The group's commands issue one at a
     * time unless `as_burst`, which submits it once with `count`
     * repetitions. Only a single query may hit a cold LUT.
     */
    void chargeSweep(LutPlacement &p, u32 parallel, u64 count = 1,
                     bool as_burst = false);

    /** Functional out[i] = LUT[in[i]] for one row pair. */
    void applyFunctional(LutPlacement &p, const dram::RowAddress &src,
                         const dram::RowAddress &dst);

    /** Word-parallel gather tables for `p`, built on first query. */
    const bulk::LutGather &gatherFor(const LutPlacement &p);

    dram::Module &mod_;
    dram::CommandScheduler &sched_;
    Design design_;
    DesignTraits traits_;
    ScratchArena own_;
    ScratchArena &arena_;
    /**
     * Per-placement gather tables. Placements are heap-stable and
     * never removed from a LutStore, so the pointer key is safe for
     * the engine's lifetime.
     */
    std::unordered_map<const LutPlacement *, bulk::LutGather> gather_;
};

} // namespace pluto::core

#endif // PLUTO_PLUTO_QUERY_ENGINE_HH
