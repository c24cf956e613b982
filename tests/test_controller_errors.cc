/**
 * @file
 * Negative tests for the Controller and device layers: every
 * user-error path must fail loudly (fatal) with a useful message,
 * not corrupt simulator state.
 */

#include <gtest/gtest.h>

#include "runtime/device.hh"

namespace pluto::runtime
{
namespace
{

DeviceConfig
tinyConfig()
{
    DeviceConfig cfg;
    cfg.geometry = dram::Geometry::tiny();
    cfg.salp = 2;
    return cfg;
}

TEST(ControllerErrors, UnknownLutNameIsFatal)
{
    PlutoDevice dev(tinyConfig());
    EXPECT_EXIT(dev.loadLut("no_such_lut"),
                ::testing::ExitedWithCode(1), "unknown LUT");
}

TEST(ControllerErrors, RowRegisterReallocationIsFatal)
{
    PlutoDevice dev(tinyConfig());
    dev.alloc(16, 8);
    EXPECT_EXIT(dev.controller().execute(isa::makeRowAlloc(0, 8, 8)),
                ::testing::ExitedWithCode(1), "reallocated");
}

TEST(ControllerErrors, UnsupportedWidthIsFatal)
{
    PlutoDevice dev(tinyConfig());
    EXPECT_EXIT(dev.alloc(16, 3), ::testing::ExitedWithCode(1),
                "unsupported bit width");
}

TEST(ControllerErrors, LutOpWidthMismatchIsFatal)
{
    PlutoDevice dev(tinyConfig());
    const auto lut = dev.loadLut("bc8"); // 8-bit slots
    const auto v16 = dev.alloc(16, 16);
    EXPECT_EXIT(dev.lutOp(v16, v16, lut),
                ::testing::ExitedWithCode(1), "width");
}

TEST(ControllerErrors, LutOpRowCountMismatchIsFatal)
{
    PlutoDevice dev(tinyConfig());
    const auto lut = dev.loadLut("identity8");
    const auto small = dev.alloc(8, 8);    // 1 row
    const auto big = dev.alloc(200, 8);    // many rows
    EXPECT_EXIT(dev.lutOp(big, small, lut),
                ::testing::ExitedWithCode(1), "rows");
}

TEST(ControllerErrors, BitwiseIncompatibleRegistersIsFatal)
{
    PlutoDevice dev(tinyConfig());
    const auto a = dev.alloc(16, 8);
    const auto b = dev.alloc(16, 16);
    const auto out = dev.alloc(16, 8);
    EXPECT_EXIT(dev.bitwiseAnd(out, a, b),
                ::testing::ExitedWithCode(1), "incompatible");
}

TEST(ControllerErrors, ReadOfUnallocatedRegisterIsFatal)
{
    PlutoDevice dev(tinyConfig());
    VecHandle bogus;
    bogus.reg = 42;
    bogus.elements = 4;
    bogus.width = 8;
    EXPECT_EXIT(dev.read(bogus), ::testing::ExitedWithCode(1),
                "not allocated");
}

TEST(ControllerErrors, OversizedWriteIsFatal)
{
    PlutoDevice dev(tinyConfig());
    const auto v = dev.alloc(4, 8);
    const std::vector<u64> too_many(100, 1);
    EXPECT_EXIT(dev.write(v, too_many), ::testing::ExitedWithCode(1),
                "allocated");
}

TEST(ControllerErrors, MisalignedRangedTransferIsFatal)
{
    PlutoDevice dev(tinyConfig());
    const auto v = dev.alloc(100, 8); // 32 slots per tiny row
    std::vector<u64> one(1);
    EXPECT_EXIT(dev.writeAt(v, 5, one), ::testing::ExitedWithCode(1),
                "write: first element 5 is not row-aligned \\(32 slots");
    EXPECT_EXIT(dev.readAt(v, 33, one), ::testing::ExitedWithCode(1),
                "read: first element 33 is not row-aligned");
}

TEST(ControllerErrors, OutOfRangeRangedTransferIsFatal)
{
    PlutoDevice dev(tinyConfig());
    const auto v = dev.alloc(100, 8);
    std::vector<u64> five(5);
    EXPECT_EXIT(dev.writeAt(v, 96, five), ::testing::ExitedWithCode(1),
                "write: 5 values at element 96 > 100 allocated");
    EXPECT_EXIT(dev.readAt(v, 128, {}), ::testing::ExitedWithCode(1),
                "read: 0 values at element 128 > 100 allocated");
}

TEST(ControllerErrors, OutOfRangeLutIndexPanics)
{
    // A slot holding an index >= lut_size is a program bug the
    // simulator must catch, not silently wrap.
    PlutoDevice dev(tinyConfig());
    const core::Lut small("small4", 2, 8, {1, 2, 3, 4});
    const auto lut = dev.loadLut(small);
    const auto v = dev.alloc(4, 8);
    dev.write(v, std::vector<u64>{0, 1, 200, 3});
    EXPECT_DEATH(dev.lutOp(v, v, lut), "out of range|index");
}

TEST(ControllerErrors, SalpBeyondDataPoolIsFatal)
{
    DeviceConfig cfg;
    cfg.geometry = dram::Geometry::tiny(); // pool: 2 banks x 4 = 8
    cfg.salp = 64;
    EXPECT_EXIT(PlutoDevice dev(cfg), ::testing::ExitedWithCode(1),
                "exceeds data pool");
}

TEST(ControllerErrors, BadFawScaleIsFatal)
{
    DeviceConfig cfg;
    cfg.geometry = dram::Geometry::tiny();
    cfg.salp = 2;
    cfg.fawScale = 1.5;
    EXPECT_EXIT(PlutoDevice dev(cfg), ::testing::ExitedWithCode(1),
                "out of");
}

TEST(ControllerErrors, StateSurvivesAfterValidOps)
{
    // Sanity: a long sequence of valid ops leaves consistent state.
    PlutoDevice dev(tinyConfig());
    const auto lut = dev.loadLut("identity8");
    const auto v = dev.alloc(64, 8);
    std::vector<u64> data(64);
    for (u64 i = 0; i < 64; ++i)
        data[i] = i * 3 % 256;
    dev.write(v, data);
    for (int k = 0; k < 10; ++k)
        dev.lutOp(v, v, lut);
    EXPECT_EQ(dev.read(v), data);
    EXPECT_DOUBLE_EQ(dev.stats().counters.get("pluto.queries"), 20.0);
}

} // namespace
} // namespace pluto::runtime
