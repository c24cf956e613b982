/**
 * @file
 * Tests for the pLUTo ISA, the Controller, and the PlutoDevice
 * facade / pLUTo Library routines (Sections 6.1, 6.2, 6.4).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/fixed_point.hh"
#include "common/random.hh"
#include "isa/program.hh"
#include "runtime/device.hh"

namespace pluto::runtime
{
namespace
{

using core::Design;
using dram::Geometry;
using dram::MemoryKind;

DeviceConfig
tinyConfig(Design d = Design::Bsa)
{
    DeviceConfig cfg;
    cfg.design = d;
    cfg.geometry = Geometry::tiny();
    cfg.salp = 2;
    return cfg;
}

TEST(Isa, Disassembly)
{
    EXPECT_EQ(isa::makeRowAlloc(0, 64, 8).str(),
              "pluto_row_alloc $prg0, 64, 8");
    EXPECT_EQ(isa::makeLutOp(1, 0, 0, 256, 8).str(),
              "pluto_op $prg1, $prg0, $lut_rg0, 256, 8");
    EXPECT_EQ(isa::makeBitwise(isa::Opcode::Or, 2, 0, 1).str(),
              "pluto_or $prg2, $prg0, $prg1");
    EXPECT_EQ(isa::makeShift(isa::Opcode::BitShiftL, 0, 4).str(),
              "pluto_bit_shift_l $prg0, #4");
    EXPECT_EQ(isa::makeMove(1, 0).str(), "pluto_move $prg1, $prg0");
}

TEST(Isa, ValidateCatchesBadPrograms)
{
    isa::Program p;
    const i32 r0 = p.newRowReg();
    p.append(isa::makeRowAlloc(r0, 16, 8));
    // LutOp with an unallocated subarray register.
    p.append(isa::makeLutOp(r0, r0, 0, 16, 8));
    EXPECT_FALSE(p.validate().empty());
}

TEST(Isa, ValidateRejectsNonPowerOfTwoLutSize)
{
    isa::Program p;
    const i32 r0 = p.newRowReg();
    const i32 s0 = p.newSubarrayReg();
    p.append(isa::makeRowAlloc(r0, 16, 8));
    p.append(isa::makeSubarrayAlloc(s0, 12, "x"));
    p.append(isa::makeLutOp(r0, r0, s0, 12, 8));
    EXPECT_NE(p.validate().find("power of two"), std::string::npos);
}

TEST(Allocator, LaneDistribution)
{
    RowAllocator alloc(Geometry::tiny(), 2);
    const auto rows = alloc.allocRows(4);
    ASSERT_EQ(rows.size(), 4u);
    // Row i on lane (i % 2); lanes map to distinct banks.
    EXPECT_EQ(rows[0].bank, rows[2].bank);
    EXPECT_EQ(rows[1].bank, rows[3].bank);
    EXPECT_NE(rows[0].bank, rows[1].bank);
    EXPECT_EQ(rows[2].row, rows[0].row + 1);
}

TEST(Allocator, LutPoolDisjointFromDataPool)
{
    RowAllocator alloc(Geometry::tiny(), 2);
    const auto data = alloc.allocRows(8);
    const auto luts = alloc.allocLutSubarrays(4);
    for (const auto &d : data)
        for (const auto &l : luts)
            EXPECT_FALSE(d.bank == l.bank && d.subarray == l.subarray);
}

TEST(Allocator, ExhaustionIsFatal)
{
    RowAllocator alloc(Geometry::tiny(), 1);
    EXPECT_EXIT(alloc.allocRows(1000), ::testing::ExitedWithCode(1),
                "out of rows");
}

TEST(Device, WriteReadRoundTrip)
{
    PlutoDevice dev(tinyConfig());
    const auto v = dev.alloc(50, 8);
    Rng rng(5);
    const auto values = rng.values(50, 256);
    dev.write(v, values);
    EXPECT_EQ(dev.read(v), values);
}

TEST(Device, RangedWriteReadRoundTrip)
{
    // Tiny rows hold 32 8-bit slots: 150 elements span 5 rows, the
    // last one partial (22 slots).
    constexpr u64 perRow = 32, n = 150, last = 4 * perRow;
    PlutoDevice dev(tinyConfig());
    const auto v = dev.alloc(n, 8);
    Rng rng(11);
    auto want = rng.values(n, 256);
    dev.write(v, want);
    const auto overwrite = [&](u64 first, const std::vector<u64> &vals) {
        dev.writeAt(v, first, vals);
        std::copy(vals.begin(), vals.end(),
                  want.begin() + static_cast<std::ptrdiff_t>(first));
        EXPECT_EQ(dev.read(v), want) << "write at " << first;
    };
    // Rows 1-2, then the partial last row; every other row keeps its
    // values.
    overwrite(perRow, rng.values(2 * perRow, 256));
    overwrite(last, rng.values(n - last, 256));
    // From 0, a ranged write leaves the rows past its values alone.
    overwrite(0, rng.values(perRow, 256));
    for (const u64 first : {u64{0}, perRow, 2 * perRow, last}) {
        std::vector<u64> got(n - first);
        dev.readAt(v, first, got);
        EXPECT_TRUE(std::equal(got.begin(), got.end(),
                               want.begin() +
                                   static_cast<std::ptrdiff_t>(first)))
            << "read at " << first;
    }
    // A short write zero-pads the rest of its (last) row, as write()
    // zero-fills every row past its values.
    dev.writeAt(v, last, std::vector<u64>{7});
    std::fill(want.begin() + last, want.end(), 0);
    want[last] = 7;
    EXPECT_EQ(dev.read(v), want);
    dev.write(v, std::vector<u64>(perRow, 9));
    want.assign(n, 0);
    std::fill(want.begin(), want.begin() + perRow, 9);
    EXPECT_EQ(dev.read(v), want);
}

TEST(Device, LutOpEndToEnd)
{
    PlutoDevice dev(tinyConfig());
    const auto lut = dev.loadLut("bc8");
    const auto in = dev.alloc(100, 8);
    const auto out = dev.alloc(100, 8);
    Rng rng(6);
    const auto values = rng.values(100, 256);
    dev.write(in, values);
    dev.lutOp(out, in, lut);
    const auto result = dev.read(out);
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(result[i],
                  static_cast<u64>(__builtin_popcountll(values[i])));
    EXPECT_GT(dev.stats().timeNs, 0.0);
    EXPECT_GT(dev.stats().energyPj, 0.0);
}

class DeviceDesigns : public ::testing::TestWithParam<Design>
{
};

TEST_P(DeviceDesigns, ApiAddMatchesReference)
{
    PlutoDevice dev(tinyConfig(GetParam()));
    const u32 n = 4;
    const auto a = dev.alloc(64, 2 * n);
    const auto b = dev.alloc(64, 2 * n);
    const auto out = dev.alloc(64, 2 * n);
    Rng rng(7);
    const auto va = rng.values(64, 16), vb = rng.values(64, 16);
    dev.write(a, va);
    dev.write(b, vb);
    dev.apiAdd(out, a, b, n);
    const auto result = dev.read(out);
    for (std::size_t i = 0; i < va.size(); ++i)
        EXPECT_EQ(result[i], va[i] + vb[i]) << "i=" << i;
}

TEST_P(DeviceDesigns, ApiMulMatchesReference)
{
    PlutoDevice dev(tinyConfig(GetParam()));
    const u32 n = 2;
    const auto a = dev.alloc(40, 2 * n);
    const auto b = dev.alloc(40, 2 * n);
    const auto out = dev.alloc(40, 2 * n);
    Rng rng(8);
    const auto va = rng.values(40, 4), vb = rng.values(40, 4);
    dev.write(a, va);
    dev.write(b, vb);
    dev.apiMul(out, a, b, n);
    const auto result = dev.read(out);
    for (std::size_t i = 0; i < va.size(); ++i)
        EXPECT_EQ(result[i], va[i] * vb[i]) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DeviceDesigns,
                         ::testing::Values(Design::Bsa, Design::Gsa,
                                           Design::Gmc),
                         [](const auto &info) {
                             return std::string(
                                        core::designName(info.param))
                                 .substr(6);
                         });

TEST(Device, BitwiseOpsMatchReference)
{
    PlutoDevice dev(tinyConfig());
    const auto a = dev.alloc(64, 8);
    const auto b = dev.alloc(64, 8);
    const auto out = dev.alloc(64, 8);
    Rng rng(9);
    const auto va = rng.values(64, 256), vb = rng.values(64, 256);
    dev.write(a, va);
    dev.write(b, vb);

    dev.bitwiseAnd(out, a, b);
    auto r = dev.read(out);
    for (std::size_t i = 0; i < va.size(); ++i)
        EXPECT_EQ(r[i], va[i] & vb[i]);

    dev.bitwiseXor(out, a, b);
    r = dev.read(out);
    for (std::size_t i = 0; i < va.size(); ++i)
        EXPECT_EQ(r[i], va[i] ^ vb[i]);

    dev.bitwiseNot(out, a);
    r = dev.read(out);
    for (std::size_t i = 0; i < va.size(); ++i)
        EXPECT_EQ(r[i], (~va[i]) & 0xff);
}

TEST(Device, ShiftAlignsOperands)
{
    // The Figure 5 alignment: shift A left by n, merge with B.
    PlutoDevice dev(tinyConfig());
    const auto a = dev.alloc(32, 8);
    const auto merged = dev.alloc(32, 8);
    Rng rng(10);
    const auto va = rng.values(32, 16);
    dev.write(a, va);
    dev.move(merged, a);
    dev.shiftLeftBits(merged, 4);
    const auto r = dev.read(merged);
    for (std::size_t i = 0; i < va.size(); ++i)
        EXPECT_EQ(r[i], (va[i] << 4) & 0xff);
}

TEST(Device, RecordingProducesValidProgram)
{
    PlutoDevice dev(tinyConfig());
    dev.startRecording();
    const auto a = dev.alloc(16, 8);
    const auto b = dev.alloc(16, 8);
    const auto out = dev.alloc(16, 8);
    dev.apiAdd(out, a, b, 4);
    const auto prog = dev.stopRecording();
    EXPECT_TRUE(prog.validate().empty()) << prog.validate();
    const auto text = prog.disassemble();
    EXPECT_NE(text.find("pluto_row_alloc"), std::string::npos);
    EXPECT_NE(text.find("pluto_subarray_alloc"), std::string::npos);
    EXPECT_NE(text.find("pluto_bit_shift_l"), std::string::npos);
    EXPECT_NE(text.find("pluto_op"), std::string::npos);
}

TEST(Device, StatsAccumulateAndReset)
{
    PlutoDevice dev(tinyConfig());
    const auto lut = dev.loadLut("identity8");
    const auto v = dev.alloc(16, 8);
    dev.resetStats();
    dev.lutOp(v, v, lut);
    const auto s = dev.stats();
    EXPECT_GT(s.timeNs, 0.0);
    EXPECT_DOUBLE_EQ(s.counters.get("pluto.queries"), 1.0);
    dev.resetStats();
    EXPECT_DOUBLE_EQ(dev.stats().timeNs, 0.0);
}

TEST(Device, GsaSlowerButSmallerThanGmc)
{
    // End-to-end design ordering on a real op sequence.
    std::vector<double> times;
    for (const Design d : {Design::Gsa, Design::Bsa, Design::Gmc}) {
        PlutoDevice dev(tinyConfig(d));
        const auto lut = dev.loadLut("colorgrade");
        const auto v = dev.alloc(200, 8);
        dev.resetStats();
        for (int k = 0; k < 3; ++k)
            dev.lutOp(v, v, lut);
        times.push_back(dev.stats().timeNs);
    }
    EXPECT_GT(times[0], times[1]); // GSA slower than BSA
    EXPECT_GT(times[1], times[2]); // BSA slower than GMC
}

TEST(Device, PaperStyleFreeFunctions)
{
    PlutoDevice dev(tinyConfig());
    const auto a = pluto_malloc(dev, 16, 8);
    const auto b = pluto_malloc(dev, 16, 8);
    const auto out = pluto_malloc(dev, 16, 8);
    const std::vector<u64> va(16, 3), vb(16, 5);
    dev.write(a, va);
    dev.write(b, vb);
    api_pluto_mul(dev, a, b, out, 4);
    EXPECT_EQ(dev.read(out)[0], 15u);
    api_pluto_add(dev, a, b, out, 4);
    EXPECT_EQ(dev.read(out)[7], 8u);
}

TEST(LutLibrary, StandardLutsResolve)
{
    LutLibrary lib;
    for (const char *name :
         {"add4", "mul4", "mulq8", "bc4", "bc8", "crc8", "crc16",
          "crc32", "binarize128", "colorgrade", "xor1", "identity8"})
        EXPECT_TRUE(lib.contains(name)) << name;
    EXPECT_FALSE(lib.contains("nonsense"));
}

TEST(LutLibrary, Crc8TableMatchesBitwiseDefinition)
{
    LutLibrary lib;
    const auto &lut = lib.get("crc8");
    // Spot-check against the direct bitwise computation.
    auto ref = [](u8 v) {
        u8 crc = v;
        for (int k = 0; k < 8; ++k)
            crc = (crc & 0x80) ? u8((crc << 1) ^ 0x07) : u8(crc << 1);
        return crc;
    };
    for (u32 i = 0; i < 256; ++i)
        EXPECT_EQ(lut.at(i), ref(static_cast<u8>(i)));
}

TEST(LutLibrary, QFormatMulMatchesFixedPoint)
{
    LutLibrary lib;
    const auto &lut = lib.get("mulq8");
    Rng rng(12);
    for (int k = 0; k < 200; ++k) {
        const u8 a = static_cast<u8>(rng.next());
        const u8 b = static_cast<u8>(rng.next());
        const Q1_7 fa(static_cast<i8>(a)), fb(static_cast<i8>(b));
        const Q1_7 prod = fa * fb;
        const u64 idx = (static_cast<u64>(a) << 8) | b;
        EXPECT_EQ(static_cast<i8>(lut.at(idx)), prod.raw);
    }
}

} // namespace
} // namespace pluto::runtime
