#include "pluto/query_engine.hh"

#include "common/bitvec.hh"
#include "common/logging.hh"

namespace pluto::core
{

QueryEngine::QueryEngine(dram::Module &mod, dram::CommandScheduler &sched,
                         Design design, ScratchArena *arena)
    : mod_(mod), sched_(sched), design_(design),
      traits_(DesignTraits::of(design)), arena_(arena ? *arena : own_)
{
}

const bulk::LutGather &
QueryEngine::gatherFor(const LutPlacement &p)
{
    const auto it = gather_.find(&p);
    if (it != gather_.end())
        return it->second;
    return gather_
        .emplace(&p, bulk::LutGather(p.lut.values(), p.lut.elemBits(),
                                     p.lut.name()))
        .first->second;
}

QueryEngine::CommandGroup
QueryEngine::commandGroup(const char *sweep_stat, u32 rows, u32 lanes,
                          u32 parallel, bool reload) const
{
    const auto &t = sched_.timing();
    const auto &e = sched_.energyParams();
    CommandGroup g;
    if (reload) {
        // GSA destroyed the resident LUT (or it was never loaded):
        // restore it from the in-DRAM master copy, one LISA-RBM row
        // copy per LUT row per lane (Table 1: LISA_RBM x N).
        g.steps[g.size++] = {.stat = "pluto.lut_reload",
                             .latency = t.lisaRbm * rows,
                             .energy = e.eLisa * rows,
                             .numActs = rows,
                             .parallel = lanes};
    }
    dram::BurstStep sweep{.stat = sweep_stat, .isSweep = true,
                          .rows = rows, .parallel = lanes};
    // GMC's gated cells keep unmatched bitlines precharged,
    // discounting activation energy.
    const EnergyPj act =
        traits_.gatedActivation ? e.eAct * e.gmcActDiscount : e.eAct;
    if (traits_.prePerStep) {
        // BSA: a full ACT + PRE per swept LUT row.
        sweep.latency = t.tRCD + t.tRP;
        sweep.energy = act + e.ePre;
    } else {
        // GSA / GMC: back-to-back activations, one final PRE. GSA's
        // unmatched cells are never restored: the sweep destroys the
        // LUT.
        sweep.latency = t.tRCD;
        sweep.energy = act;
        sweep.tailLatency = t.tRP;
        sweep.tailEnergy = e.ePre;
    }
    g.steps[g.size++] = sweep;
    // Move the query result (FF buffer / gated row buffer) into the
    // destination subarray's row buffer with one LISA-RBM operation.
    g.steps[g.size++] = {.stat = "pluto.result_move",
                         .latency = t.lisaRbm,
                         .energy = e.eLisa,
                         .numActs = 1,
                         .parallel = parallel};
    return g;
}

void
QueryEngine::chargeSweep(LutPlacement &p, u32 parallel, u64 count,
                         bool as_burst)
{
    const bool reload = traits_.reloadPerQuery || !p.loaded;
    // Only the first query of a cold LUT reloads it.
    PLUTO_ASSERT(count == 1 || !reload || traits_.reloadPerQuery);
    const CommandGroup g =
        commandGroup("pluto.sweep", p.rowsPerPartition,
                     p.partitionCount() * parallel, parallel, reload);
    if (as_burst)
        sched_.burst(g.commands(), count);
    else
        for (const auto &step : g.commands())
            sched_.burst(step);
    sched_.stats().add("pluto.queries",
                       static_cast<double>(parallel) * count);
    if (reload) {
        // Cold reloads (non-GSA designs hitting an unloaded LUT) are
        // worth distinguishing from GSA's every-query restores.
        if (!traits_.reloadPerQuery)
            sched_.stats().inc("pluto.lut_reload.cold");
        p.loadCount += count;
    }
    p.loaded = !traits_.destructiveReads;
}

void
QueryEngine::applyFunctional(LutPlacement &p, const dram::RowAddress &src,
                             const dram::RowAddress &dst)
{
    const u32 width = p.lut.elemBits();
    const bulk::LutGather &gather = gatherFor(p);
    // peekRow before rowAt: if src == dst and the row is untouched,
    // the peek must observe the all-zero image, not the fresh storage.
    const auto in = mod_.peekRow(src);
    auto out = mod_.rowAt(dst);
    const u64 slots = elementsPerBytes(in.size(), width);
    gather.apply(in, out, slots);
    sched_.stats().add("pluto.lookups", static_cast<double>(slots));
}

void
QueryEngine::query(LutPlacement &p, const dram::RowAddress &src,
                   const dram::RowAddress &dst)
{
    queryWave(p, {{src, dst}});
}

void
QueryEngine::queryWave(LutPlacement &p, const std::vector<QueryPair> &pairs)
{
    if (pairs.empty())
        return;
    for (const auto &[src, dst] : pairs)
        applyFunctional(p, src, dst);
    chargeSweep(p, static_cast<u32>(pairs.size()));
}

void
QueryEngine::queryTimedOnlyBatch(LutPlacement &p, u32 parallel, u64 count)
{
    PLUTO_ASSERT(parallel >= 1);
    if (count == 0)
        return;
    if (!traits_.reloadPerQuery && !p.loaded) {
        // Cold first query pays the one-time LUT load; the remaining
        // repetitions are then homogeneous.
        chargeSweep(p, parallel);
        if (--count == 0)
            return;
    }
    chargeSweep(p, parallel, count, true);
}

void
QueryEngine::queryStacked(const std::vector<LutPlacement *> &luts,
                          const dram::RowAddress &src,
                          const dram::RowAddress &dst, u32 parallel)
{
    if (luts.empty())
        return;
    const u32 width = luts.front()->lut.elemBits();
    const auto sa = luts.front()->partitions.at(0);
    RowIndex first = luts.front()->baseRow;
    RowIndex last = first;
    for (const auto *p : luts) {
        if (p->partitionCount() != 1)
            fatal("queryStacked: LUT '%s' is partitioned",
                  p->lut.name().c_str());
        if (p->partitions[0] != sa)
            fatal("queryStacked: LUT '%s' lives in a different "
                  "subarray", p->lut.name().c_str());
        if (p->lut.elemBits() != width)
            fatal("queryStacked: LUT '%s' width %u != %u",
                  p->lut.name().c_str(), p->lut.elemBits(), width);
        first = std::min(first, p->baseRow);
        last = std::max<RowIndex>(
            last, p->baseRow + static_cast<RowIndex>(p->lut.size()));
    }

    if (last > (1ull << std::min<u32>(width, 63)))
        fatal("queryStacked: stacked region ends at row %u, beyond "
              "the %u-bit index range", last, width);

    // Functional: a slot's index is an absolute row of the stacked
    // region (i.e. already offset by its target LUT's base row); the
    // owning LUT is the one whose [base, base+size) contains it. The
    // stacked set varies per call, so this path stays scalar; it is
    // not on the campaign hot loops.
    const auto in = mod_.peekRow(src);
    auto out = mod_.rowAt(dst);
    ConstElementView iv(in, width);
    ElementView ov(out, width);
    for (u64 s = 0; s < iv.size(); ++s) {
        const u64 v = iv.get(s);
        const LutPlacement *owner = nullptr;
        for (const auto *p : luts) {
            if (v >= p->baseRow && v < p->baseRow + p->lut.size()) {
                owner = p;
                break;
            }
        }
        if (!owner)
            panic("queryStacked: slot %llu index %llu hits no LUT",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(v));
        ov.set(s, owner->lut.at(v - owner->baseRow));
    }

    // Timing: one sweep over the whole stacked region, after a
    // reload of that region when the design restores every query
    // (GSA) or a stacked LUT is not resident.
    bool reload = traits_.reloadPerQuery;
    for (const auto *p : luts)
        reload = reload || !p->loaded;
    const CommandGroup g = commandGroup(
        "pluto.sweep_stacked", last - first, parallel, parallel, reload);
    for (const auto &step : g.commands())
        sched_.burst(step);
    sched_.stats().add("pluto.queries", parallel);
    if (reload && !traits_.reloadPerQuery)
        sched_.stats().inc("pluto.lut_reload.cold");
    for (auto *p : luts) {
        if (reload)
            ++p->loadCount;
        p->loaded = !traits_.destructiveReads;
    }
}

void
QueryEngine::queryViaSweep(LutPlacement &p, const dram::RowAddress &src,
                           const dram::RowAddress &dst)
{
    const auto &geom = mod_.geometry();
    const u32 width = p.lut.elemBits();

    if (!p.loaded)
        panic("LUT '%s': sweep over a destroyed LUT", p.lut.name().c_str());

    const auto in = mod_.peekRow(src);
    // The FF buffer (BSA) / gated row buffer (GSA, GMC) accumulates
    // matched elements over the sweep, starting from all-zero
    // (precharged) state.
    auto ff = arena_.bytes(ScratchArena::SweepFf, geom.rowBytes);
    std::fill(ff.begin(), ff.end(), 0);
    auto lut_row = arena_.bytes(ScratchArena::SweepLutRow, geom.rowBytes);

    // Partitions hold consecutive LUT rows, so walking the global
    // index visits them in sweep order.
    for (u64 global = 0; global < p.lut.size(); ++global) {
        // Activate LUT row `global`: its element appears, replicated,
        // in the pLUTo-enabled row buffer. The Match Logic compares
        // every source slot against the activated row's index and
        // latches matching slots — one word-parallel select over the
        // packed row.
        ElementView(lut_row, width).fill(p.lut.at(global));
        bulk::bulkMatchSelect(in, lut_row, ff, width, global);
    }

    mod_.writeRow(dst, ff);
    if (traits_.destructiveReads)
        p.loaded = false;
}

} // namespace pluto::core
