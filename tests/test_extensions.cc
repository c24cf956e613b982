/**
 * @file
 * Tests for the extension features beyond the paper's core results:
 * multi-LUT stacked queries (Section 4's multiple-LUTs-per-subarray),
 * refresh-interference modeling, and the command trace recorder.
 */

#include <gtest/gtest.h>

#include "common/bitvec.hh"
#include "common/random.hh"
#include "pluto/query_engine.hh"
#include "runtime/device.hh"

namespace pluto::core
{
namespace
{

using dram::Geometry;

class StackedTest : public ::testing::TestWithParam<Design>
{
  protected:
    StackedTest()
        : mod(Geometry::tiny()),
          sched(dram::TimingParams::ddr4_2400(),
                dram::EnergyParams::ddr4()),
          store(mod, sched),
          engine(mod, sched, GetParam())
    {
        // Two 16-entry LUTs stacked in subarray b0.s2: squares at
        // rows 0..15, complements at rows 16..31.
        const auto sq = Lut::fromFunction(
            "sq", 4, 8, [](u64 x) { return (x * x) & 0xff; });
        const auto inv = Lut::fromFunction(
            "inv", 4, 8, [](u64 x) { return 15 - x; });
        sqIdx = store.place(sq, {{0, 2}}, LutLoadMethod::FromMemory, 0);
        invIdx =
            store.place(inv, {{0, 2}}, LutLoadMethod::FromMemory, 16);
    }

    dram::Module mod;
    dram::CommandScheduler sched;
    LutStore store;
    QueryEngine engine;
    u32 sqIdx = 0, invIdx = 0;
};

TEST_P(StackedTest, OneSweepServesBothLuts)
{
    // Even slots query the squares LUT, odd slots the complement LUT
    // (indices pre-offset by base row 16).
    auto row = mod.rowAt({0, 0, 0});
    ElementView v(row, 8);
    for (u64 s = 0; s < v.size(); ++s) {
        const u64 x = s % 16;
        v.set(s, s % 2 == 0 ? x : 16 + x);
    }
    std::vector<LutPlacement *> luts = {&store.placement(sqIdx),
                                        &store.placement(invIdx)};
    engine.queryStacked(luts, {0, 0, 0}, {0, 1, 0});
    const auto out = mod.readRow({0, 1, 0});
    ConstElementView ov(out, 8);
    for (u64 s = 0; s < ov.size(); ++s) {
        const u64 x = s % 16;
        const u64 expect = s % 2 == 0 ? (x * x) & 0xff : 15 - x;
        EXPECT_EQ(ov.get(s), expect) << "slot " << s;
    }
}

TEST_P(StackedTest, SweepCoversStackedRegionOnce)
{
    mod.rowAt({0, 0, 0}); // all-zero input: queries sq[0]
    sched.reset();
    std::vector<LutPlacement *> luts = {&store.placement(sqIdx),
                                        &store.placement(invIdx)};
    engine.queryStacked(luts, {0, 0, 0}, {0, 1, 0});
    // 32 stacked rows swept once, not 16 + 16 in two sweeps + two
    // result moves.
    EXPECT_DOUBLE_EQ(
        sched.stats().get("pluto.sweep_stacked.rows"), 32.0);
    EXPECT_DOUBLE_EQ(sched.stats().get("pluto.result_move"), 1.0);
}

TEST_P(StackedTest, CheaperThanTwoSeparateQueries)
{
    mod.rowAt({0, 0, 0});
    sched.reset();
    std::vector<LutPlacement *> luts = {&store.placement(sqIdx),
                                        &store.placement(invIdx)};
    engine.queryStacked(luts, {0, 0, 0}, {0, 1, 0});
    const TimeNs fused = sched.elapsed();

    sched.reset();
    engine.query(store.placement(sqIdx), {0, 0, 0}, {0, 1, 1});
    engine.query(store.placement(invIdx), {0, 0, 0}, {0, 1, 2});
    EXPECT_LT(fused, sched.elapsed());
}

TEST_P(StackedTest, GsaDestroysWholeStack)
{
    mod.rowAt({0, 0, 0});
    std::vector<LutPlacement *> luts = {&store.placement(sqIdx),
                                        &store.placement(invIdx)};
    engine.queryStacked(luts, {0, 0, 0}, {0, 1, 0});
    if (GetParam() == Design::Gsa) {
        EXPECT_FALSE(store.placement(sqIdx).loaded);
        EXPECT_FALSE(store.placement(invIdx).loaded);
    } else {
        EXPECT_TRUE(store.placement(sqIdx).loaded);
        EXPECT_TRUE(store.placement(invIdx).loaded);
    }
}

TEST_P(StackedTest, SecondQueryReloadsDestroyedStack)
{
    // GSA's first stacked sweep destroyed both LUTs, so the second
    // restores all 32 stacked rows first (Table 1: LISA_RBM x N).
    // BSA and GMC sweeps leave the stack resident.
    const bool gsa = GetParam() == Design::Gsa;
    mod.rowAt({0, 0, 0});
    std::vector<LutPlacement *> luts = {&store.placement(sqIdx),
                                        &store.placement(invIdx)};
    engine.queryStacked(luts, {0, 0, 0}, {0, 1, 0});
    const u64 loads0 = store.placement(sqIdx).loadCount;
    sched.reset();
    engine.queryStacked(luts, {0, 0, 0}, {0, 1, 0});
    EXPECT_DOUBLE_EQ(sched.stats().get("pluto.lut_reload"),
                     gsa ? 1.0 : 0.0);
    EXPECT_NEAR(sched.stats().get("pluto.lut_reload.ns"),
                gsa ? 32 * sched.timing().lisaRbm : 0.0, 1e-9);
    EXPECT_DOUBLE_EQ(sched.stats().get("pluto.lut_reload.cold"), 0.0);
    EXPECT_EQ(store.placement(sqIdx).loadCount, loads0 + (gsa ? 1 : 0));
    for (const auto *p : luts)
        EXPECT_EQ(p->loaded, !gsa) << p->lut.name();
}

TEST_P(StackedTest, EvictedMemberReloadsStack)
{
    // One evicted LUT makes every design restore the stacked region;
    // afterwards the stack is resident unless the sweep destroyed it.
    const bool gsa = GetParam() == Design::Gsa;
    mod.rowAt({0, 0, 0});
    store.placement(invIdx).loaded = false;
    std::vector<LutPlacement *> luts = {&store.placement(sqIdx),
                                        &store.placement(invIdx)};
    sched.reset();
    engine.queryStacked(luts, {0, 0, 0}, {0, 1, 0});
    EXPECT_DOUBLE_EQ(sched.stats().get("pluto.lut_reload"), 1.0);
    EXPECT_DOUBLE_EQ(sched.stats().get("pluto.lut_reload.cold"),
                     gsa ? 0.0 : 1.0);
    for (const auto *p : luts) {
        EXPECT_EQ(p->loadCount, 2u) << p->lut.name();
        EXPECT_EQ(p->loaded, !gsa) << p->lut.name();
    }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, StackedTest,
                         ::testing::Values(Design::Bsa, Design::Gsa,
                                           Design::Gmc),
                         [](const auto &info) {
                             return std::string(designName(info.param))
                                 .substr(6);
                         });

TEST(StackedErrors, RejectsMixedSubarrays)
{
    dram::Module mod(Geometry::tiny());
    dram::CommandScheduler sched(dram::TimingParams::ddr4_2400(),
                                 dram::EnergyParams::ddr4());
    LutStore store(mod, sched);
    QueryEngine engine(mod, sched, Design::Bsa);
    const auto a = Lut::fromFunction("a", 4, 8,
                                     [](u64 x) { return x; });
    const u32 i1 = store.place(a, {{0, 2}});
    const u32 i2 = store.place(a, {{0, 3}});
    std::vector<LutPlacement *> luts = {&store.placement(i1),
                                        &store.placement(i2)};
    EXPECT_EXIT(engine.queryStacked(luts, {0, 0, 0}, {0, 1, 0}),
                ::testing::ExitedWithCode(1), "different subarray");
}

// ---- Refresh modeling ----

TEST(Refresh, StretchFactorFromTimings)
{
    const auto t = dram::TimingParams::ddr4_2400();
    // tRFC/tREFI = 350/7800 -> ~4.7% stretch.
    EXPECT_NEAR(t.refreshStretch(), 1.047, 0.002);
    dram::TimingParams none = t;
    none.tRFC = 0.0;
    EXPECT_DOUBLE_EQ(none.refreshStretch(), 1.0);
}

TEST(Refresh, SchedulerStretchesDramOnly)
{
    const auto t = dram::TimingParams::ddr4_2400();
    const auto e = dram::EnergyParams::ddr4();
    dram::CommandScheduler off(t, e), on(t, e);
    on.setModelRefresh(true);
    off.op("cmd.x", 1000.0, 1.0);
    on.op("cmd.x", 1000.0, 1.0);
    EXPECT_NEAR(on.elapsed() / off.elapsed(), t.refreshStretch(),
                1e-9);
    // Host time is not DRAM time: no stretch.
    dram::CommandScheduler h(t, e);
    h.setModelRefresh(true);
    h.hostTime(1000.0);
    EXPECT_DOUBLE_EQ(h.elapsed(), 1000.0);
}

TEST(Refresh, DeviceConfigPlumbsThrough)
{
    runtime::DeviceConfig a, b;
    a.geometry = Geometry::tiny();
    a.salp = 2;
    b = a;
    b.modelRefresh = true;
    runtime::PlutoDevice da(a), db(b);
    const auto lut_a = da.loadLut("colorgrade");
    const auto lut_b = db.loadLut("colorgrade");
    const auto va = da.alloc(64, 8), vb = db.alloc(64, 8);
    da.resetStats();
    db.resetStats();
    da.lutOp(va, va, lut_a);
    db.lutOp(vb, vb, lut_b);
    EXPECT_GT(db.stats().timeNs, da.stats().timeNs);
}

// ---- Command trace ----

TEST(TraceRecorder, RecordsOrderedEvents)
{
    const auto t = dram::TimingParams::ddr4_2400();
    dram::CommandScheduler s(t, dram::EnergyParams::ddr4());
    s.setTraceLimit(16);
    s.op("cmd.a", 10.0, 1.0);
    s.sweep("pluto.sweep", 4, 5.0, 1.0, 2);
    s.hostTime(3.0);
    ASSERT_EQ(s.trace().size(), 3u);
    EXPECT_EQ(s.trace()[0].name, "cmd.a");
    EXPECT_EQ(s.trace()[1].name, "pluto.sweep");
    EXPECT_EQ(s.trace()[2].name, "host");
    // Events are contiguous and ordered.
    EXPECT_DOUBLE_EQ(s.trace()[0].start, 0.0);
    EXPECT_DOUBLE_EQ(s.trace()[0].end, 10.0);
    EXPECT_DOUBLE_EQ(s.trace()[1].start, 10.0);
    EXPECT_DOUBLE_EQ(s.trace()[1].end, 30.0);
    EXPECT_DOUBLE_EQ(s.trace()[2].end, 33.0);
}

TEST(TraceRecorder, LimitCapsStorageNotCounting)
{
    dram::CommandScheduler s(dram::TimingParams::ddr4_2400(),
                             dram::EnergyParams::ddr4());
    s.setTraceLimit(2);
    for (int k = 0; k < 5; ++k)
        s.op("cmd.x", 1.0, 1.0);
    EXPECT_EQ(s.trace().size(), 2u);
    EXPECT_DOUBLE_EQ(s.stats().get("trace.events"), 5.0);
}

TEST(TraceRecorder, DisabledByDefault)
{
    dram::CommandScheduler s(dram::TimingParams::ddr4_2400(),
                             dram::EnergyParams::ddr4());
    s.op("cmd.x", 1.0, 1.0);
    EXPECT_TRUE(s.trace().empty());
}

} // namespace
} // namespace pluto::core
