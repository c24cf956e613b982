/**
 * @file
 * Unit tests for the common utilities: packed element views, fixed
 * point, RNG determinism, stats, and table formatting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/arena.hh"
#include "common/bitvec.hh"
#include "common/bitvec_bulk.hh"
#include "common/cpuid.hh"
#include "common/fixed_point.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace pluto
{
namespace
{

TEST(BitVec, SupportedWidths)
{
    EXPECT_TRUE(isSupportedElementWidth(1));
    EXPECT_TRUE(isSupportedElementWidth(2));
    EXPECT_TRUE(isSupportedElementWidth(4));
    EXPECT_TRUE(isSupportedElementWidth(8));
    EXPECT_TRUE(isSupportedElementWidth(16));
    EXPECT_TRUE(isSupportedElementWidth(32));
    EXPECT_FALSE(isSupportedElementWidth(0));
    EXPECT_FALSE(isSupportedElementWidth(3));
    EXPECT_FALSE(isSupportedElementWidth(64));
}

TEST(BitVec, ElementsPerBytes)
{
    EXPECT_EQ(elementsPerBytes(8192, 8), 8192u);
    EXPECT_EQ(elementsPerBytes(8192, 4), 16384u);
    EXPECT_EQ(elementsPerBytes(8192, 16), 4096u);
    EXPECT_EQ(elementsPerBytes(1, 1), 8u);
}

class ElementViewWidths : public ::testing::TestWithParam<u32>
{
};

TEST_P(ElementViewWidths, RoundTrip)
{
    const u32 width = GetParam();
    std::vector<u8> buf(64, 0);
    ElementView view(buf, width);
    Rng rng(width);
    std::vector<u64> expect(view.size());
    for (u64 i = 0; i < view.size(); ++i) {
        expect[i] = rng.below(1ULL << std::min<u32>(width, 63));
        view.set(i, expect[i]);
    }
    for (u64 i = 0; i < view.size(); ++i)
        EXPECT_EQ(view.get(i), expect[i]) << "width " << width
                                          << " slot " << i;
}

INSTANTIATE_TEST_SUITE_P(AllWidths, ElementViewWidths,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(BitVec, SetDoesNotDisturbNeighbors)
{
    std::vector<u8> buf(4, 0);
    ElementView view(buf, 2);
    for (u64 i = 0; i < view.size(); ++i)
        view.set(i, 3);
    view.set(5, 0);
    for (u64 i = 0; i < view.size(); ++i)
        EXPECT_EQ(view.get(i), i == 5 ? 0u : 3u);
}

TEST(BitVec, PackUnpackRoundTrip)
{
    const std::vector<u64> values = {1, 2, 3, 15, 0, 7, 9, 12};
    const auto packed = packElements(values, 4);
    EXPECT_EQ(packed.size(), 4u);
    EXPECT_EQ(unpackElements(packed, 4), values);
}

// ---- Bulk kernels: randomized equivalence vs. the scalar
// ElementView reference across widths, unaligned counts and tails,
// repeated at every SIMD dispatch tier (the override caps at the
// machine's capability, so unsupported tiers just re-run a lower
// path — duplicate coverage, never an illegal instruction) ----

class BulkKernelWidths
    : public ::testing::TestWithParam<std::tuple<u32, simd::Tier>>
{
  protected:
    void SetUp() override
    {
        simd::overrideTier(std::get<1>(GetParam()));
    }
    void TearDown() override { simd::clearTierOverride(); }

    u32 width() const { return std::get<0>(GetParam()); }

    /** Counts chosen to hit word boundaries, tails and odd sizes. */
    std::vector<u64>
    counts() const
    {
        return {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200, 257};
    }
};

TEST_P(BulkKernelWidths, UnpackMatchesScalar)
{
    const u32 width = this->width();
    Rng rng(width * 11 + 1);
    for (const u64 n : counts()) {
        const u64 bytes = (n * width + 7) / 8;
        std::vector<u8> buf(bytes + 3); // slack past the packed tail
        for (auto &b : buf)
            b = static_cast<u8>(rng.below(256));
        ConstElementView view(std::span<const u8>(buf), width);
        std::vector<u64> got(n);
        bulk::unpackBulk(buf, width, got);
        for (u64 i = 0; i < n; ++i)
            EXPECT_EQ(got[i], view.get(i))
                << "width " << width << " n " << n << " slot " << i;
    }
}

TEST_P(BulkKernelWidths, PackMatchesScalar)
{
    const u32 width = this->width();
    Rng rng(width * 13 + 2);
    for (const u64 n : counts()) {
        std::vector<u64> values(n);
        for (auto &v : values)
            v = rng.next(); // packBulk must mask to `width` bits
        const auto expect = packElements(
            [&] {
                // Scalar reference keeps only the low bits.
                std::vector<u64> masked(values);
                for (auto &v : masked)
                    v &= width >= 64 ? ~0ull : (1ull << width) - 1;
                return masked;
            }(),
            width);
        std::vector<u8> got(expect.size(), 0xa5);
        bulk::packBulk(values, width, got);
        EXPECT_EQ(got, expect) << "width " << width << " n " << n;
    }
}

TEST_P(BulkKernelWidths, GatherMatchesScalar)
{
    const u32 width = this->width();
    Rng rng(width * 17 + 3);
    // Full LUTs and partial LUTs (bounds-checked byte paths differ).
    const u64 domain = 1ull << std::min<u32>(width, 10);
    for (const u64 lut_size : {domain, domain > 3 ? domain - 3 : 1}) {
        std::vector<u64> lut(lut_size);
        for (auto &v : lut)
            v = rng.next();
        const bulk::LutGather gather(lut, width, "prop");
        const u64 mask = width >= 64 ? ~0ull : (1ull << width) - 1;
        for (const u64 n : counts()) {
            std::vector<u64> idx(n);
            for (auto &v : idx)
                v = rng.below(lut_size);
            const auto src = packElements(idx, width);
            std::vector<u8> dst((n * width + 7) / 8, 0);
            gather.apply(src, dst, n);
            ConstElementView out(std::span<const u8>(dst), width);
            for (u64 i = 0; i < n; ++i)
                EXPECT_EQ(out.get(i), lut[idx[i]] & mask)
                    << "width " << width << " lut " << lut_size
                    << " n " << n << " slot " << i;
        }
    }
}

TEST_P(BulkKernelWidths, GatherInPlaceAliasing)
{
    const u32 width = this->width();
    Rng rng(width * 19 + 4);
    const u64 lut_size = 1ull << std::min<u32>(width, 8);
    std::vector<u64> lut(lut_size);
    for (auto &v : lut)
        v = rng.next();
    const bulk::LutGather gather(lut, width, "alias");
    const u64 mask = width >= 64 ? ~0ull : (1ull << width) - 1;
    const u64 n = 96;
    std::vector<u64> idx(n);
    for (auto &v : idx)
        v = rng.below(lut_size);
    auto buf = packElements(idx, width);
    gather.apply(buf, buf, n); // src == dst, as in-place queries do
    ConstElementView out(std::span<const u8>(buf), width);
    for (u64 i = 0; i < n; ++i)
        EXPECT_EQ(out.get(i), lut[idx[i]] & mask) << "slot " << i;
}

TEST_P(BulkKernelWidths, MatchSelectMatchesScalar)
{
    const u32 width = this->width();
    Rng rng(width * 23 + 5);
    const u64 domain = 1ull << std::min<u32>(width, 10);
    const u64 n = 64; // elements
    std::vector<u64> src_vals(n), lut_vals(n), ff_vals(n);
    for (u64 i = 0; i < n; ++i) {
        src_vals[i] = rng.below(domain);
        lut_vals[i] = rng.below(domain);
        ff_vals[i] = rng.below(domain);
    }
    const auto src = packElements(src_vals, width);
    const auto lut_row = packElements(lut_vals, width);
    for (int round = 0; round < 8; ++round) {
        const u64 target = rng.below(domain);
        auto ff = packElements(ff_vals, width);
        bulk::bulkMatchSelect(src, lut_row, ff, width, target);
        ConstElementView out(std::span<const u8>(ff), width);
        for (u64 i = 0; i < n; ++i) {
            const u64 expect =
                src_vals[i] == target ? lut_vals[i] : ff_vals[i];
            EXPECT_EQ(out.get(i), expect)
                << "width " << width << " target " << target
                << " slot " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWidthsAllTiers, BulkKernelWidths,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 32),
                       ::testing::Values(simd::Tier::Scalar,
                                         simd::Tier::Ssse3,
                                         simd::Tier::Avx2)));

TEST(SimdDispatch, OverrideOnlyLowersTheTier)
{
    // The test hook caps at the detected capability — it can force
    // scalar on an AVX2 box but never the reverse.
    const simd::Tier base = simd::tier();
    simd::overrideTier(simd::Tier::Scalar);
    EXPECT_EQ(simd::tier(), simd::Tier::Scalar);
    simd::overrideTier(simd::Tier::Avx2);
    EXPECT_LE(simd::tier(), base);
    simd::clearTierOverride();
    EXPECT_EQ(simd::tier(), base);
    EXPECT_STREQ(simd::tierName(simd::Tier::Scalar), "scalar");
    EXPECT_STREQ(simd::tierName(simd::Tier::Ssse3), "ssse3");
    EXPECT_STREQ(simd::tierName(simd::Tier::Avx2), "avx2");
}

TEST(BulkKernels, GatherPanicsOnOutOfRangeIndex)
{
    // A partial LUT must reject out-of-range indices exactly like the
    // scalar query path, naming the offending slot.
    std::vector<u64> lut(10); // 4-bit domain is 16: 10..15 invalid
    const bulk::LutGather gather(lut, 4, "oob");
    const std::vector<u64> idx = {1, 2, 12, 3};
    const auto src = packElements(idx, 4);
    std::vector<u8> dst(src.size(), 0);
    EXPECT_DEATH(gather.apply(src, dst, idx.size()),
                 "source slot 2 holds index 12 >= 10");
}

TEST(BulkKernels, RowOpsMatchScalarAtOddSizes)
{
    Rng rng(99);
    for (const std::size_t n : {1ul, 7ul, 8ul, 13ul, 64ul, 100ul, 8197ul}) {
        const auto a = rng.bytes(n), b = rng.bytes(n), c = rng.bytes(n);
        std::vector<u8> got(n), expect(n);
        bulk::bulkMaj(a, b, c, got);
        for (std::size_t i = 0; i < n; ++i)
            expect[i] = static_cast<u8>((a[i] & b[i]) | (a[i] & c[i]) |
                                        (b[i] & c[i]));
        EXPECT_EQ(got, expect) << "maj n=" << n;
        bulk::bulkXnor(a, b, got);
        for (std::size_t i = 0; i < n; ++i)
            expect[i] = static_cast<u8>(~(a[i] ^ b[i]));
        EXPECT_EQ(got, expect) << "xnor n=" << n;
        bulk::bulkNot(a, got);
        for (std::size_t i = 0; i < n; ++i)
            expect[i] = static_cast<u8>(~a[i]);
        EXPECT_EQ(got, expect) << "not n=" << n;
    }
}

TEST(BulkKernels, ShiftsMatchByteReference)
{
    Rng rng(123);
    // Word-multiple and odd row sizes; shifts crossing byte and word
    // boundaries.
    for (const std::size_t n : {8ul, 16ul, 64ul, 13ul, 8192ul}) {
        for (const u32 bits : {1u, 3u, 8u, 9u, 63u, 64u, 65u, 200u}) {
            auto row = rng.bytes(n);
            // Byte-at-a-time reference (the former rowmath loop).
            auto expect = row;
            {
                const u32 bs = bits / 8, rb = bits % 8;
                if (bs >= n) {
                    std::fill(expect.begin(), expect.end(), 0);
                } else {
                    if (bs > 0) {
                        for (std::size_t i = n; i-- > bs;)
                            expect[i] = expect[i - bs];
                        std::fill(expect.begin(), expect.begin() + bs,
                                  0);
                    }
                    if (rb > 0) {
                        for (std::size_t i = n; i-- > 0;) {
                            const u8 lo =
                                i > 0 ? static_cast<u8>(
                                            expect[i - 1] >> (8 - rb))
                                      : 0;
                            expect[i] = static_cast<u8>(
                                (expect[i] << rb) | lo);
                        }
                    }
                }
            }
            auto got = row;
            bulk::bulkShiftLeft(got, bits);
            EXPECT_EQ(got, expect) << "shl n=" << n << " b=" << bits;

            // Right shift must invert the left shift of the high part:
            // check against its own byte reference.
            auto expect_r = row;
            {
                const u32 bs = bits / 8, rb = bits % 8;
                if (bs >= n) {
                    std::fill(expect_r.begin(), expect_r.end(), 0);
                } else {
                    if (bs > 0) {
                        for (std::size_t i = 0; i + bs < n; ++i)
                            expect_r[i] = expect_r[i + bs];
                        std::fill(expect_r.end() - bs, expect_r.end(),
                                  0);
                    }
                    if (rb > 0) {
                        for (std::size_t i = 0; i < n; ++i) {
                            const u8 hi =
                                i + 1 < n ? static_cast<u8>(
                                                expect_r[i + 1]
                                                << (8 - rb))
                                          : 0;
                            expect_r[i] = static_cast<u8>(
                                (expect_r[i] >> rb) | hi);
                        }
                    }
                }
            }
            auto got_r = row;
            bulk::bulkShiftRight(got_r, bits);
            EXPECT_EQ(got_r, expect_r)
                << "shr n=" << n << " b=" << bits;
        }
    }
}

TEST(ScratchArena, GrowOnlyAndStable)
{
    ScratchArena arena;
    auto a = arena.bytes(ScratchArena::SweepFf, 64);
    EXPECT_EQ(a.size(), 64u);
    std::fill(a.begin(), a.end(), 0xcd);
    // Shrinking request keeps capacity; same storage is reused.
    auto b = arena.bytes(ScratchArena::SweepFf, 16);
    EXPECT_EQ(b.size(), 16u);
    EXPECT_EQ(arena.capacity(ScratchArena::SweepFf), 64u);
    EXPECT_EQ(b.data(), a.data());
    EXPECT_EQ(b[0], 0xcd); // contents persist (callers overwrite)
    // Slots are independent.
    auto c = arena.bytes(ScratchArena::SweepLutRow, 8);
    EXPECT_NE(c.data(), a.data());
}

TEST(FixedPoint, Q17Basics)
{
    const auto half = Q1_7::fromDouble(0.5);
    EXPECT_EQ(half.raw, 64);
    const auto quarter = half * half;
    EXPECT_NEAR(quarter.toDouble(), 0.25, 1.0 / 128);
}

TEST(FixedPoint, Q115Saturation)
{
    const auto big = Q1_15::fromDouble(5.0);
    EXPECT_NEAR(big.toDouble(), (32768.0 - 1) / 32768.0, 1e-4);
    const auto neg = Q1_15::fromDouble(-5.0);
    EXPECT_NEAR(neg.toDouble(), -1.0, 1e-6);
}

TEST(FixedPoint, MulMatchesDouble)
{
    Rng rng(7);
    for (int k = 0; k < 200; ++k) {
        const double a = rng.uniform(-1.0, 0.99);
        const double b = rng.uniform(-1.0, 0.99);
        const auto fa = Q1_7::fromDouble(a);
        const auto fb = Q1_7::fromDouble(b);
        const auto fp = fa * fb;
        EXPECT_NEAR(fp.toDouble(), fa.toDouble() * fb.toDouble(),
                    1.0 / 128 + 1e-9);
    }
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int k = 0; k < 100; ++k)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng rng(1);
    for (int k = 0; k < 1000; ++k)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowDrawsMatchTheRejectionFormula)
{
    // Workloads replay saved Rng copies to recompute their inputs, so
    // below() must keep this exact rule and draw count. 2^63 + 1
    // rejects about half its draws, pinning the rejection path.
    const auto formula = [](Rng &rng, u64 bound) {
        const u64 threshold = (0 - bound) % bound;
        for (;;) {
            const u64 r = rng.next();
            if (r >= threshold)
                return r % bound;
        }
    };
    for (const u64 bound :
         {u64{1}, u64{2}, u64{3}, u64{56}, u64{255}, u64{256},
          (u64{1} << 32) + 1, u64{1} << 63, (u64{1} << 63) + 1,
          ~u64{0}}) {
        Rng got(bound), want(bound);
        for (int k = 0; k < 2000; ++k)
            ASSERT_EQ(got.below(bound), formula(want, bound))
                << "bound " << bound << " draw " << k;
        EXPECT_EQ(got.next(), want.next()) << "bound " << bound;
    }
}

TEST(Rng, UniformInRange)
{
    Rng rng(2);
    for (int k = 0; k < 1000; ++k) {
        const double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(3);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int k = 0; k < n; ++k) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Stats, AddAndMerge)
{
    StatSet a, b;
    a.add("x", 2.0);
    a.inc("x");
    b.add("x", 1.0);
    b.add("y", 4.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 4.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 4.0);
    EXPECT_DOUBLE_EQ(a.get("absent"), 0.0);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Table, RendersAligned)
{
    AsciiTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "23456"});
    const auto out = t.render();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("23456"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtX(713.4), "713x");
    EXPECT_EQ(fmtX(39.52), "39.5x");
    EXPECT_EQ(fmtX(1.234), "1.23x");
    EXPECT_EQ(fmtPct(0.167), "16.7%");
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(units::usToNs(1.5), 1500.0);
    EXPECT_DOUBLE_EQ(units::mJToPj(1.0), 1e9);
    EXPECT_DOUBLE_EQ(units::pJToMj(1e9), 1.0);
    // 10 W for 1 us = 10 uJ = 1e7 pJ.
    EXPECT_DOUBLE_EQ(units::energyFromPower(10.0, 1000.0), 1e7);
}

} // namespace
} // namespace pluto
