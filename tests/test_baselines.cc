/**
 * @file
 * Tests for the baseline cost models: host specs, the Table 6 PuM
 * comparators, and the Figure 12b multiplication-efficiency models.
 */

#include <gtest/gtest.h>

#include "baselines/mul_efficiency.hh"
#include "baselines/pum_compare.hh"
#include "baselines/systems.hh"

namespace pluto::baselines
{
namespace
{

const auto timing = dram::TimingParams::ddr4_2400();
const auto energy = dram::EnergyParams::ddr4();
const auto geom = dram::Geometry::ddr4();

TEST(Systems, GpuDrawsMoreThanCpu)
{
    EXPECT_GT(gpuSpec().power, cpuSpec().power);
}

TEST(PumCompare, BitwiseLatenciesNearPaper)
{
    // Table 6: Ambit 135/270/585, LAcc XOR 450, DRISA NOT 207.6.
    auto lat = [&](PumSystem s, PumOp op) {
        return *pumOpLatency(s, op, timing);
    };
    EXPECT_NEAR(lat(PumSystem::Ambit, PumOp::Not), 135.0, 7.0);
    EXPECT_NEAR(lat(PumSystem::Ambit, PumOp::And), 270.0, 14.0);
    EXPECT_NEAR(lat(PumSystem::Ambit, PumOp::Xor), 585.0, 30.0);
    EXPECT_NEAR(lat(PumSystem::Lacc, PumOp::Xor), 450.0, 25.0);
    EXPECT_NEAR(lat(PumSystem::Drisa, PumOp::Not), 207.6, 12.0);
}

TEST(PumCompare, PlutoWinsBitwiseOverAllPriorSystems)
{
    // Section 8.9: pLUTo's bitwise throughput matches or exceeds all
    // prior works.
    for (const auto op : {PumOp::And, PumOp::Or, PumOp::Xor,
                          PumOp::Xnor, PumOp::Not}) {
        const auto pluto =
            *pumOpLatency(PumSystem::PlutoBsa, op, timing);
        for (const auto s : {PumSystem::Ambit, PumSystem::Simdram,
                             PumSystem::Lacc, PumSystem::Drisa})
            EXPECT_LT(pluto, *pumOpLatency(s, op, timing))
                << pumOpName(op);
    }
}

TEST(PumCompare, PlutoWinsMultiplicationLosesAddition)
{
    // Table 6: pLUTo 4-bit mul beats everyone; 4-bit add slightly
    // lags the best bit-serial designs.
    const auto pluto_mul =
        *pumOpLatency(PumSystem::PlutoBsa, PumOp::Mul4, timing);
    for (const auto s : {PumSystem::Ambit, PumSystem::Simdram,
                         PumSystem::Lacc, PumSystem::Drisa})
        EXPECT_LT(pluto_mul, *pumOpLatency(s, PumOp::Mul4, timing));
    const auto pluto_add =
        *pumOpLatency(PumSystem::PlutoBsa, PumOp::Add4, timing);
    EXPECT_GT(pluto_add,
              *pumOpLatency(PumSystem::Lacc, PumOp::Add4, timing));
    EXPECT_GT(pluto_add,
              *pumOpLatency(PumSystem::Simdram, PumOp::Add4, timing));
}

TEST(PumCompare, UnsupportedOpsAreNullopt)
{
    // Table 6's "-" cells: LAcc has no bit counting; nobody but
    // pLUTo supports generic LUT queries / binarization /
    // exponentiation.
    EXPECT_FALSE(pumOpLatency(PumSystem::Lacc, PumOp::BitCount4,
                              timing));
    for (const auto op : {PumOp::Lut6to2, PumOp::Lut8to8,
                          PumOp::Binarize8, PumOp::Exp8}) {
        for (const auto s : {PumSystem::Ambit, PumSystem::Simdram,
                             PumSystem::Lacc, PumSystem::Drisa})
            EXPECT_FALSE(pumOpLatency(s, op, timing))
                << pumOpName(op);
        EXPECT_TRUE(pumOpLatency(PumSystem::PlutoBsa, op, timing));
    }
}

TEST(PumCompare, SpecsMatchTable6Header)
{
    EXPECT_DOUBLE_EQ(pumSpec(PumSystem::Drisa).capacityGb, 2.0);
    EXPECT_DOUBLE_EQ(pumSpec(PumSystem::Drisa).powerW, 98.0);
    EXPECT_DOUBLE_EQ(pumSpec(PumSystem::PlutoBsa).powerW, 11.0);
    EXPECT_NEAR(pumSpec(PumSystem::PlutoBsa).areaMm2, 70.5, 0.1);
}

TEST(PumCompare, EnergyDefinedWhereLatencyIs)
{
    for (const auto s : {PumSystem::Ambit, PumSystem::Simdram,
                         PumSystem::Lacc, PumSystem::Drisa,
                         PumSystem::PlutoBsa}) {
        for (const auto op : allPumOps()) {
            EXPECT_EQ(pumOpLatency(s, op, timing).has_value(),
                      pumOpEnergy(s, op, timing, energy).has_value());
        }
    }
}

class MulWidths : public ::testing::TestWithParam<u32>
{
};

TEST_P(MulWidths, PlutoBeatsSimdramAtEveryWidth)
{
    // Section 8.6: executing multiplication in pLUTo is more energy
    // efficient than SIMDRAM for all evaluated bit widths.
    const u32 bits = GetParam();
    EXPECT_LT(plutoBsaMulEnergyPerOp(bits, energy, geom),
              simdramMulEnergyPerOp(bits, timing, geom));
}

INSTANTIATE_TEST_SUITE_P(Widths, MulWidths,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(MulEfficiency, PlutoLeadsAtNarrowPnmAtWide)
{
    // pLUTo beats PnM at <= 8 bits; PnM overtakes for wide operands.
    EXPECT_LT(plutoBsaMulEnergyPerOp(4, energy, geom),
              pnmMulEnergyPerOp(4));
    EXPECT_GT(plutoBsaMulEnergyPerOp(16, energy, geom),
              pnmMulEnergyPerOp(16));
    EXPECT_GT(plutoBsaMulEnergyPerOp(32, energy, geom),
              pnmMulEnergyPerOp(32));
}

TEST(MulEfficiency, EnergyGrowsMonotonicallyWithWidth)
{
    double prev = 0.0;
    for (const u32 bits : {1u, 2u, 4u, 8u, 16u, 32u}) {
        const double e = plutoBsaMulEnergyPerOp(bits, energy, geom);
        EXPECT_GT(e, prev);
        prev = e;
    }
}

TEST(MulEfficiency, SimdramEnergyQuadraticInWidth)
{
    // Section 8.6: bit-serial multiplication incurs a quadratic
    // number of DRAM activations in the bit width.
    EXPECT_DOUBLE_EQ(simdramMulEnergyPerOp(8, timing, geom) /
                         simdramMulEnergyPerOp(4, timing, geom),
                     4.0);
}

TEST(MulEfficiency, OpsPerJouleInverse)
{
    EXPECT_DOUBLE_EQ(opsPerJoule(1e12), 1.0);
    EXPECT_DOUBLE_EQ(opsPerJoule(1e6), 1e6);
}

} // namespace
} // namespace pluto::baselines
