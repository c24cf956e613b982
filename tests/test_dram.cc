/**
 * @file
 * Unit tests for the DRAM substrate: geometry presets, functional
 * storage (lazy rows, validity tracking), and the command scheduler
 * with its tFAW sliding window.
 */

#include <gtest/gtest.h>

#include "dram/module.hh"
#include "dram/scheduler.hh"

namespace pluto::dram
{
namespace
{

TEST(Timing, Ddr4Preset)
{
    const auto t = TimingParams::ddr4_2400();
    EXPECT_DOUBLE_EQ(t.tRCD, 14.16);
    EXPECT_DOUBLE_EQ(t.tRP, 14.16);
    EXPECT_DOUBLE_EQ(t.tFAW, 13.328);
    EXPECT_EQ(t.kind, MemoryKind::Ddr4);
}

TEST(Timing, HmcFasterActivation)
{
    const auto d = TimingParams::ddr4_2400();
    const auto h = TimingParams::hmc3ds();
    EXPECT_LT(h.tRCD, d.tRCD);
    // ~38% faster sweep step (Section 8.2).
    EXPECT_NEAR(d.tRCD / h.tRCD, 1.38, 0.02);
}

TEST(Geometry, PresetsMatchPaper)
{
    const auto d = Geometry::ddr4();
    EXPECT_EQ(d.rowBytes, 8192u);
    EXPECT_EQ(d.rowsPerSubarray, 512u);
    EXPECT_EQ(d.defaultSalp, 16u);
    const auto h = Geometry::hmc3ds();
    EXPECT_EQ(h.rowBytes, 256u);
    EXPECT_EQ(h.defaultSalp, 512u);
    // Equal data volume per sweep step: 16 x 8 kB == 512 x 256 B.
    EXPECT_EQ(d.defaultSalp * d.rowBytes, h.defaultSalp * h.rowBytes);
}

TEST(Geometry, Capacity)
{
    const auto g = Geometry::tiny();
    EXPECT_EQ(g.capacityBytes(),
              u64(g.banks) * g.subarraysPerBank * g.rowsPerSubarray *
                  g.rowBytes);
}

TEST(Subarray, LazyRowsReadZero)
{
    Subarray s(8, 16);
    const auto row = s.readRow(3);
    EXPECT_EQ(row.size(), 16u);
    for (const u8 b : row)
        EXPECT_EQ(b, 0);
}

TEST(Subarray, WriteReadRoundTrip)
{
    Subarray s(8, 4);
    const std::vector<u8> data = {1, 2, 3, 4};
    s.writeRow(2, data);
    EXPECT_EQ(s.readRow(2), data);
}

TEST(Subarray, CopyRowFpm)
{
    Subarray s(8, 4);
    const std::vector<u8> data = {9, 8, 7, 6};
    s.writeRow(0, data);
    s.copyRow(0, 5);
    EXPECT_EQ(s.readRow(5), data);
}

TEST(Module, AddressedAccess)
{
    Module m(Geometry::tiny());
    const RowAddress addr{1, 2, 3};
    std::vector<u8> data(m.geometry().rowBytes, 0xab);
    m.writeRow(addr, data);
    EXPECT_EQ(m.readRow(addr), data);
    // Other banks unaffected.
    EXPECT_EQ(m.readRow({0, 2, 3}),
              std::vector<u8>(m.geometry().rowBytes, 0));
}

TEST(Address, Formatting)
{
    EXPECT_EQ((RowAddress{2, 5, 17}).str(), "b2.s5.r17");
    EXPECT_EQ((SubarrayAddress{0, 3}).str(), "b0.s3");
}

TEST(FawTracker, DisabledPassesThrough)
{
    FawTracker f(0.0);
    EXPECT_DOUBLE_EQ(f.reserve(5.0), 5.0);
    EXPECT_DOUBLE_EQ(f.reserve(5.0), 5.0);
    EXPECT_DOUBLE_EQ(f.reserveBatch(5.0, 100), 5.0);
}

TEST(FawTracker, FourActsPerWindow)
{
    FawTracker f(10.0);
    // First four ACTs issue immediately.
    for (int k = 0; k < 4; ++k)
        EXPECT_DOUBLE_EQ(f.reserve(0.0), 0.0);
    // The fifth must wait a full window.
    EXPECT_DOUBLE_EQ(f.reserve(0.0), 10.0);
    // And the ninth a further window.
    for (int k = 0; k < 3; ++k)
        f.reserve(0.0);
    EXPECT_DOUBLE_EQ(f.reserve(0.0), 20.0);
}

TEST(FawTracker, NoDelayWhenSlowerThanWindow)
{
    FawTracker f(10.0);
    TimeNs t = 0.0;
    for (int k = 0; k < 20; ++k) {
        EXPECT_DOUBLE_EQ(f.reserve(t), t);
        t += 5.0; // 4 ACTs per 20 ns < 4 per 10 ns limit
    }
}

TEST(Scheduler, OpAdvancesTimeAndEnergy)
{
    CommandScheduler s(TimingParams::ddr4_2400(), EnergyParams::ddr4());
    s.op("cmd.test", 100.0, 50.0, 0, 4);
    EXPECT_DOUBLE_EQ(s.elapsed(), 100.0);
    EXPECT_DOUBLE_EQ(s.energyTotal(), 200.0); // 50 pJ x 4 lanes
    EXPECT_DOUBLE_EQ(s.stats().get("cmd.test"), 1.0);
}

TEST(Scheduler, SweepUnthrottled)
{
    CommandScheduler s(TimingParams::ddr4_2400(), EnergyParams::ddr4(),
                       0.0);
    s.sweep("pluto.sweep", 256, 28.32, 3300.0, 16);
    EXPECT_NEAR(s.elapsed(), 256 * 28.32, 1e-9);
    EXPECT_NEAR(s.energyTotal(), 256 * 3300.0 * 16, 1e-6);
    EXPECT_DOUBLE_EQ(s.stats().get("dram.acts"), 256.0 * 16);
}

TEST(Scheduler, SweepThrottledByFaw)
{
    const auto t = TimingParams::ddr4_2400();
    CommandScheduler unthrottled(t, EnergyParams::ddr4(), 0.0);
    CommandScheduler nominal(t, EnergyParams::ddr4(), 1.0);
    unthrottled.sweep("pluto.sweep", 64, t.tRCD + t.tRP, 1.0, 16);
    nominal.sweep("pluto.sweep", 64, t.tRCD + t.tRP, 1.0, 16);
    EXPECT_GT(nominal.elapsed(), unthrottled.elapsed());
    // Energy is unaffected by throttling.
    EXPECT_DOUBLE_EQ(nominal.energyTotal(), unthrottled.energyTotal());
}

TEST(Scheduler, HostTime)
{
    CommandScheduler s(TimingParams::ddr4_2400(), EnergyParams::ddr4());
    s.hostTime(123.0, 7.0);
    EXPECT_DOUBLE_EQ(s.elapsed(), 123.0);
    EXPECT_DOUBLE_EQ(s.energyTotal(), 7.0);
    EXPECT_DOUBLE_EQ(s.stats().get("host.ns"), 123.0);
}

TEST(Scheduler, ResetClearsEverything)
{
    CommandScheduler s(TimingParams::ddr4_2400(), EnergyParams::ddr4(),
                       1.0);
    s.sweep("pluto.sweep", 16, 10.0, 1.0, 8);
    s.reset();
    EXPECT_DOUBLE_EQ(s.elapsed(), 0.0);
    EXPECT_DOUBLE_EQ(s.energyTotal(), 0.0);
    EXPECT_DOUBLE_EQ(s.stats().get("dram.acts"), 0.0);
}

} // namespace
} // namespace pluto::dram
