/**
 * @file
 * Unit tests for the pLUTo core: designs, LUTs, the Table 1 analysis
 * formulas, LUT store, and the query engine — including
 * the cross-check between the fast functional path and the
 * microarchitectural sweep emulation, and GSA's destructive reads.
 */

#include <gtest/gtest.h>

#include "common/bitvec.hh"
#include "common/random.hh"
#include "pluto/analysis.hh"
#include "pluto/query_engine.hh"

namespace pluto::core
{
namespace
{

using dram::Geometry;

TEST(Design, Names)
{
    EXPECT_STREQ(designName(Design::Bsa), "pLUTo-BSA");
    EXPECT_STREQ(designName(Design::Gsa), "pLUTo-GSA");
    EXPECT_STREQ(designName(Design::Gmc), "pLUTo-GMC");
}

TEST(Design, TraitsMatchTable1)
{
    const auto bsa = DesignTraits::of(Design::Bsa);
    EXPECT_FALSE(bsa.destructiveReads);
    EXPECT_TRUE(bsa.prePerStep);
    const auto gsa = DesignTraits::of(Design::Gsa);
    EXPECT_TRUE(gsa.destructiveReads);
    EXPECT_TRUE(gsa.reloadPerQuery);
    const auto gmc = DesignTraits::of(Design::Gmc);
    EXPECT_FALSE(gmc.destructiveReads);
    EXPECT_TRUE(gmc.gatedActivation);
}

TEST(Lut, FromFunction)
{
    const auto lut = Lut::fromFunction("sq", 4, 8,
                                       [](u64 x) { return x * x; });
    EXPECT_EQ(lut.size(), 16u);
    EXPECT_EQ(lut.at(3), 9u);
    EXPECT_EQ(lut.at(15), 225u);
}

TEST(Lut, ValueMasking)
{
    const Lut lut("m", 2, 2, {5, 6, 7, 8});
    // Values masked to 2 bits.
    EXPECT_EQ(lut.at(0), 1u);
    EXPECT_EQ(lut.at(3), 0u);
}

TEST(LutDeath, RejectsBadShapes)
{
    EXPECT_EXIT(Lut("bad", 4, 2, std::vector<u64>(16)),
                ::testing::ExitedWithCode(1), "element width");
    EXPECT_EXIT(Lut("bad", 4, 8, std::vector<u64>(15)),
                ::testing::ExitedWithCode(1), "expected");
    EXPECT_EXIT(Lut("bad", 0, 8, {}), ::testing::ExitedWithCode(1),
                "index bits");
}

TEST(Analysis, Table1LatencyFormulas)
{
    const auto t = dram::TimingParams::ddr4_2400();
    const u32 n = 256;
    EXPECT_DOUBLE_EQ(queryLatency(Design::Bsa, t, n),
                     (t.tRCD + t.tRP) * n);
    EXPECT_DOUBLE_EQ(queryLatency(Design::Gsa, t, n),
                     t.lisaRbm * n + t.tRCD * n + t.tRP);
    EXPECT_DOUBLE_EQ(queryLatency(Design::Gmc, t, n),
                     t.tRCD * n + t.tRP);
}

TEST(Analysis, DesignOrdering)
{
    // GMC fastest, GSA slowest; GMC most energy-efficient, GSA least
    // (Section 5.4's three key observations).
    const auto t = dram::TimingParams::ddr4_2400();
    const auto e = dram::EnergyParams::ddr4();
    for (u32 n : {2u, 16u, 256u, 1024u}) {
        EXPECT_LT(queryLatency(Design::Gmc, t, n),
                  queryLatency(Design::Bsa, t, n));
        EXPECT_LT(queryLatency(Design::Bsa, t, n),
                  queryLatency(Design::Gsa, t, n));
        EXPECT_LT(queryEnergy(Design::Gmc, e, n),
                  queryEnergy(Design::Bsa, e, n));
        EXPECT_LT(queryEnergy(Design::Bsa, e, n),
                  queryEnergy(Design::Gsa, e, n));
    }
}

TEST(Analysis, GsaToBsaSlowdownNearPaper)
{
    // Figure 7: BSA outperforms GSA by ~2x on average.
    const auto t = dram::TimingParams::ddr4_2400();
    const double ratio = queryLatency(Design::Gsa, t, 256) /
                         queryLatency(Design::Bsa, t, 256);
    EXPECT_NEAR(ratio, 2.0, 0.15);
}

TEST(Analysis, GmcToBsaSpeedupNearTwo)
{
    // Footnote 3: sweep ratio (tRCD+tRP)N / (tRCD*N + tRP) -> 2.
    const auto t = dram::TimingParams::ddr4_2400();
    const double ratio = queryLatency(Design::Bsa, t, 1024) /
                         queryLatency(Design::Gmc, t, 1024);
    EXPECT_NEAR(ratio, 2.0, 0.05);
}

TEST(Analysis, ThroughputScalesInverselyWithLutSize)
{
    const auto t = dram::TimingParams::ddr4_2400();
    const auto g = Geometry::ddr4();
    const double t16 =
        queryThroughputPerSec(Design::Bsa, t, g, 8, 16);
    const double t256 =
        queryThroughputPerSec(Design::Bsa, t, g, 8, 256);
    EXPECT_NEAR(t16 / t256, 16.0, 0.01);
}

class EngineTest : public ::testing::TestWithParam<Design>
{
  protected:
    EngineTest()
        : mod(Geometry::tiny()),
          sched(dram::TimingParams::ddr4_2400(),
                dram::EnergyParams::ddr4()),
          store(mod, sched),
          engine(mod, sched, GetParam())
    {
    }

    /** Place the paper's Figure 3 prime-number LUT. */
    LutPlacement &
    primesPlacement()
    {
        const Lut primes("primes", 2, 8, {2, 3, 5, 7});
        const u32 idx = store.place(primes, {{0, 2}});
        return store.placement(idx);
    }

    dram::Module mod;
    dram::CommandScheduler sched;
    LutStore store;
    QueryEngine engine;
};

TEST_P(EngineTest, Figure3PrimesExample)
{
    auto &p = primesPlacement();
    // Input vector [1, 0, 1, 3] -> expected output [3, 2, 3, 7].
    const dram::RowAddress src{0, 0, 0}, dst{0, 1, 0};
    auto row = mod.rowAt(src);
    ElementView view(row, 8);
    const u64 input[] = {1, 0, 1, 3};
    for (u64 i = 0; i < 4; ++i)
        view.set(i, input[i]);
    engine.query(p, src, dst);
    const auto out = mod.readRow(dst);
    ConstElementView ov(out, 8);
    EXPECT_EQ(ov.get(0), 3u);
    EXPECT_EQ(ov.get(1), 2u);
    EXPECT_EQ(ov.get(2), 3u);
    EXPECT_EQ(ov.get(3), 7u);
}

TEST_P(EngineTest, SweepEmulationMatchesFastPath)
{
    auto &p = primesPlacement();
    Rng rng(11);
    const auto geom = mod.geometry();
    const u64 slots = elementsPerBytes(geom.rowBytes, 8);
    const dram::RowAddress src{0, 0, 0}, fast{0, 1, 0}, emu{0, 1, 1};
    auto row = mod.rowAt(src);
    ElementView view(row, 8);
    for (u64 i = 0; i < slots; ++i)
        view.set(i, rng.below(4));
    engine.query(p, src, fast);
    if (GetParam() == Design::Gsa) {
        // The fast-path query destroyed the LUT; reload before the
        // emulation sweep.
        store.load(p, LutLoadMethod::FromMemory);
    }
    engine.queryViaSweep(p, src, emu);
    EXPECT_EQ(mod.readRow(fast), mod.readRow(emu));
}

TEST_P(EngineTest, TimingMatchesTable1Formulas)
{
    auto &p = primesPlacement();
    const dram::RowAddress src{0, 0, 0}, dst{0, 1, 0};
    mod.rowAt(src); // touch (all-zero input: queries LUT[0])
    sched.reset();
    engine.query(p, src, dst);
    const auto &t = sched.timing();
    // Expected: Table 1 sweep latency plus one LISA result move. GSA
    // additionally reloads the LUT, which the Table 1 expression
    // already folds in as LISA_RBM x N.
    const TimeNs expect =
        queryLatency(GetParam(), t, 4) + t.lisaRbm;
    EXPECT_NEAR(sched.elapsed(), expect, 1e-9);
}

TEST_P(EngineTest, EnergyMatchesTable1Formulas)
{
    auto &p = primesPlacement();
    const dram::RowAddress src{0, 0, 0}, dst{0, 1, 0};
    mod.rowAt(src);
    sched.reset();
    engine.query(p, src, dst);
    const auto &e = sched.energyParams();
    const EnergyPj expect =
        queryEnergy(GetParam(), e, 4) + e.eLisa;
    EXPECT_NEAR(sched.energyTotal(), expect, 1e-9);
}

TEST_P(EngineTest, BatchMatchesTable1Formulas)
{
    // `count` warm timed-only queries of one lane at tFAW 0: each is
    // the Table 1 query (GSA's reload folded in) plus one LISA result
    // move.
    auto &p = primesPlacement();
    sched.reset();
    const u64 count = 25;
    engine.queryTimedOnlyBatch(p, 1, count);
    const auto &t = sched.timing();
    const auto &e = sched.energyParams();
    const TimeNs expectNs =
        count * (queryLatency(GetParam(), t, 4) + t.lisaRbm);
    const EnergyPj expectPj =
        count * (queryEnergy(GetParam(), e, 4) + e.eLisa);
    EXPECT_NEAR(sched.elapsed(), expectNs, 1e-12 * expectNs);
    EXPECT_NEAR(sched.energyTotal(), expectPj, 1e-12 * expectPj);
    EXPECT_DOUBLE_EQ(sched.stats().get("pluto.queries"), count);
}

TEST_P(EngineTest, WaveTimeEqualsSingleQueryTime)
{
    auto &p = primesPlacement();
    for (u32 r = 0; r < 4; ++r)
        mod.rowAt({0, 0, r});
    sched.reset();
    engine.query(p, {0, 0, 0}, {0, 1, 0});
    const TimeNs single = sched.elapsed();
    const EnergyPj singleE = sched.energyTotal();
    sched.reset();
    engine.queryWave(p, {{{0, 0, 1}, {0, 1, 1}},
                         {{0, 0, 2}, {0, 1, 2}},
                         {{0, 0, 3}, {0, 1, 3}}});
    // Lock-step lanes: same elapsed time, 3x the energy.
    EXPECT_NEAR(sched.elapsed(), single, 1e-9);
    EXPECT_NEAR(sched.energyTotal(), 3.0 * singleE, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, EngineTest,
                         ::testing::Values(Design::Bsa, Design::Gsa,
                                           Design::Gmc),
                         [](const auto &info) {
                             return std::string(designName(info.param))
                                 .substr(6);
                         });

TEST(EngineGsa, DestructiveReadsForceReload)
{
    dram::Module mod(Geometry::tiny());
    dram::CommandScheduler sched(dram::TimingParams::ddr4_2400(),
                                 dram::EnergyParams::ddr4());
    LutStore store(mod, sched);
    QueryEngine engine(mod, sched, Design::Gsa);

    const Lut primes("primes", 2, 8, {2, 3, 5, 7});
    auto &p = store.placement(store.place(primes, {{0, 2}}));
    EXPECT_TRUE(p.loaded);
    const u64 loads0 = p.loadCount;

    mod.rowAt({0, 0, 0});
    engine.query(p, {0, 0, 0}, {0, 1, 0});
    EXPECT_FALSE(p.loaded);

    // The next query transparently reloads first.
    engine.query(p, {0, 0, 0}, {0, 1, 0});
    EXPECT_GT(p.loadCount, loads0);
}

TEST(EngineGmc, LutSurvivesQueries)
{
    dram::Module mod(Geometry::tiny());
    dram::CommandScheduler sched(dram::TimingParams::ddr4_2400(),
                                 dram::EnergyParams::ddr4());
    LutStore store(mod, sched);
    QueryEngine engine(mod, sched, Design::Gmc);

    const Lut primes("primes", 2, 8, {2, 3, 5, 7});
    auto &p = store.placement(store.place(primes, {{0, 2}}));
    const u64 loads0 = p.loadCount;
    mod.rowAt({0, 0, 0});
    for (int k = 0; k < 5; ++k)
        engine.query(p, {0, 0, 0}, {0, 1, 0});
    EXPECT_TRUE(p.loaded);
    EXPECT_EQ(p.loadCount, loads0);
}

TEST(LutStore, PartitionedPlacement)
{
    // tiny geometry: 64 rows/subarray; a 128-entry LUT needs 2
    // partitions (Section 5.6).
    dram::Module mod(Geometry::tiny());
    dram::CommandScheduler sched(dram::TimingParams::ddr4_2400(),
                                 dram::EnergyParams::ddr4());
    LutStore store(mod, sched);
    QueryEngine engine(mod, sched, Design::Bsa);
    const auto lut = Lut::fromFunction(
        "affine128", 7, 8, [](u64 x) { return (3 * x + 1) & 0xff; });
    EXPECT_EQ(LutStore::partitionsFor(lut, mod.geometry()), 2u);
    auto &p = store.placement(store.place(lut, {{0, 2}, {0, 3}}));
    EXPECT_EQ(p.rowsPerPartition, 64u);
    // The sweep walks both partitions: slot 0 asks for element 69
    // (partition 1, local row 5), the rest for elements on either
    // side of the partition boundary.
    auto row = mod.rowAt({0, 0, 0});
    ElementView in(row, 8);
    in.set(0, 69);
    for (u64 s = 1; s < in.size(); ++s)
        in.set(s, (60 + s) % 128);
    engine.queryViaSweep(p, {0, 0, 0}, {0, 1, 0});
    const auto out = mod.readRow({0, 1, 0});
    ConstElementView v(out, 8);
    EXPECT_EQ(v.get(0), lut.at(69));
    for (u64 s = 1; s < v.size(); ++s)
        EXPECT_EQ(v.get(s), lut.at((60 + s) % 128)) << "slot " << s;
}

TEST(LutStore, SweepMatchesQueryBeyondOldImageBudget)
{
    // A 2^14-entry LUT of 16-bit elements replicated over 8 kB rows
    // is a 128 MiB row image, twice the 64 MiB budget above which
    // the sweep emulation used to refuse to run. The emulation builds
    // each activated row from the Lut values, so it needs no image.
    const Geometry g = Geometry::ddr4();
    dram::Module mod(g);
    dram::CommandScheduler sched(dram::TimingParams::ddr4_2400(),
                                 dram::EnergyParams::ddr4());
    LutStore store(mod, sched);
    QueryEngine engine(mod, sched, Design::Gsa);
    const auto lut = Lut::fromFunction(
        "big", 14, 16, [](u64 x) { return (x * 40503) & 0xffff; });
    ASSERT_GT(lut.size() * g.rowBytes, 64ull << 20);
    std::vector<dram::SubarrayAddress> parts;
    for (u32 i = 0; i < LutStore::partitionsFor(lut, g); ++i)
        parts.push_back({1, i});
    auto &p = store.placement(store.place(lut, parts));

    Rng rng(5);
    auto row = mod.rowAt({0, 0, 0});
    ElementView in(row, 16);
    for (u64 s = 0; s < in.size(); ++s)
        in.set(s, rng.below(lut.size()));
    engine.query(p, {0, 0, 0}, {0, 1, 0});
    EXPECT_FALSE(p.loaded);
    store.load(p, LutLoadMethod::FromMemory);
    engine.queryViaSweep(p, {0, 0, 0}, {0, 1, 1});
    EXPECT_FALSE(p.loaded);
    EXPECT_EQ(mod.readRow({0, 1, 0}), mod.readRow({0, 1, 1}));
}

TEST(LutStore, LoadTimesFollowBandwidths)
{
    const LutLoadModel m;
    const TimeNs mem = m.loadTime(LutLoadMethod::FromMemory, 256, 8192);
    const TimeNs ssd = m.loadTime(LutLoadMethod::FromStorage, 256, 8192);
    const TimeNs gen =
        m.loadTime(LutLoadMethod::FirstTimeGeneration, 256, 8192);
    EXPECT_NEAR(mem, 256.0 * 8192 / 19.2, 1e-6);
    EXPECT_GT(ssd, mem);
    EXPECT_GT(gen, mem);
}

TEST(LutStore, BaseRowSupportsMultipleLutsPerSubarray)
{
    dram::Module mod(Geometry::tiny());
    dram::CommandScheduler sched(dram::TimingParams::ddr4_2400(),
                                 dram::EnergyParams::ddr4());
    LutStore store(mod, sched);
    QueryEngine engine(mod, sched, Design::Bsa);
    const Lut a("a", 2, 8, {1, 2, 3, 4});
    const Lut b("b", 2, 8, {5, 6, 7, 8});
    auto &pa = store.placement(
        store.place(a, {{0, 2}}, LutLoadMethod::FromMemory, 0));
    auto &pb = store.placement(
        store.place(b, {{0, 2}}, LutLoadMethod::FromMemory, 4));
    EXPECT_EQ(pa.baseRow, 0u);
    EXPECT_EQ(pb.baseRow, 4u);
    // Each LUT answers from its own rows of the shared subarray.
    auto row = mod.rowAt({0, 0, 0});
    ElementView in(row, 8);
    for (u64 s = 0; s < in.size(); ++s)
        in.set(s, s % 4);
    engine.queryViaSweep(pa, {0, 0, 0}, {0, 1, 0});
    engine.queryViaSweep(pb, {0, 0, 0}, {0, 1, 1});
    const auto outA = mod.readRow({0, 1, 0});
    const auto outB = mod.readRow({0, 1, 1});
    ConstElementView va(outA, 8), vb(outB, 8);
    for (u64 s = 0; s < va.size(); ++s) {
        EXPECT_EQ(va.get(s), 1 + s % 4) << "slot " << s;
        EXPECT_EQ(vb.get(s), 5 + s % 4) << "slot " << s;
    }
}

} // namespace
} // namespace pluto::core
