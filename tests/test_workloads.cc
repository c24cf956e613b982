/**
 * @file
 * Integration tests: every workload executes end-to-end on the
 * simulated device (at reduced scale for the heavy ones), verifies
 * functionally, and exhibits the paper's cross-design and
 * cross-memory orderings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "child_rss.hh"
#include "common/random.hh"
#include "workloads/chunked.hh"
#include "workloads/crc.hh"
#include "workloads/workload.hh"

namespace pluto::workloads
{
namespace
{

using core::Design;
using dram::MemoryKind;

runtime::DeviceConfig
deviceConfig(Design d = Design::Bsa, MemoryKind m = MemoryKind::Ddr4)
{
    runtime::DeviceConfig cfg;
    cfg.design = d;
    cfg.memory = m;
    return cfg;
}

/** Reduced scales keep the suite fast while covering full paths. */
u64
testScale(const Workload &w)
{
    const std::string n = w.name();
    if (n.rfind("CRC", 0) == 0)
        return 2048ull * 128; // 2048 packets
    if (n == "Salsa20" || n == "VMPC")
        return 64ull * 512; // 64 packets
    if (n == "ImgBin" || n == "ColorGrade")
        return 200000;
    return 65536;
}

class AllWorkloads : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllWorkloads, VerifiesOnBsaDdr4)
{
    const auto w = makeWorkload(GetParam());
    runtime::PlutoDevice dev(deviceConfig());
    const auto res = w->run(dev, testScale(*w));
    EXPECT_TRUE(res.verified) << w->name();
    EXPECT_GT(res.timeNs, 0.0);
    EXPECT_GT(res.energyPj, 0.0);
    EXPECT_GT(res.elements, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Names, AllWorkloads,
    ::testing::Values("CRC-8", "CRC-16", "CRC-32", "Salsa20", "VMPC",
                      "ImgBin", "ColorGrade", "ADD4", "ADD8", "MUL4",
                      "MUL8", "MUL16", "MULQ1.7", "BC4", "BC8",
                      "Bitwise-AND", "Bitwise-XOR"),
    [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(WorkloadOrdering, DesignsOrderAsTable1)
{
    // GSA slowest, GMC fastest, on a pure-LUT workload.
    const auto w = makeWorkload("ColorGrade");
    std::map<Design, double> t;
    for (const auto d : {Design::Gsa, Design::Bsa, Design::Gmc}) {
        runtime::PlutoDevice dev(deviceConfig(d));
        t[d] = w->run(dev, 200000).timeNs;
    }
    EXPECT_GT(t[Design::Gsa], t[Design::Bsa]);
    EXPECT_GT(t[Design::Bsa], t[Design::Gmc]);
    // GSA ~2x BSA, BSA ~2x GMC (Figure 7's ratios).
    EXPECT_NEAR(t[Design::Gsa] / t[Design::Bsa], 2.0, 0.5);
    EXPECT_NEAR(t[Design::Bsa] / t[Design::Gmc], 2.0, 0.5);
}

TEST(WorkloadOrdering, ThreeDsFasterThanDdr4)
{
    // Section 8.2: 3DS outperforms DDR4 by ~38% at equal data volume
    // per sweep step.
    const auto w = makeWorkload("ImgBin");
    runtime::PlutoDevice d4(deviceConfig(Design::Bsa, MemoryKind::Ddr4));
    runtime::PlutoDevice d3(
        deviceConfig(Design::Bsa, MemoryKind::Hmc3ds));
    const double t4 = w->run(d4, 1048576).nsPerElem();
    const double t3 = w->run(d3, 1048576).nsPerElem();
    EXPECT_NEAR(t4 / t3, 1.38, 0.1);
}

TEST(WorkloadOrdering, TfawThrottlingMonotonic)
{
    const auto w = makeWorkload("ImgBin");
    double prev = 0.0;
    for (const double scale : {0.0, 0.5, 1.0}) {
        runtime::DeviceConfig cfg;
        cfg.fawScale = scale;
        runtime::PlutoDevice dev(cfg);
        const double t = w->run(dev, 500000).timeNs;
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(WorkloadOrdering, EnergyInvariantUnderTfaw)
{
    // Throttling delays commands but does not change their count.
    const auto w = makeWorkload("ImgBin");
    runtime::DeviceConfig a, b;
    a.fawScale = 0.0;
    b.fawScale = 1.0;
    runtime::PlutoDevice da(a), db(b);
    const auto ra = w->run(da, 500000);
    const auto rb = w->run(db, 500000);
    // Command energy identical; total differs only via background
    // power over the longer elapsed time.
    EXPECT_GT(rb.timeNs, ra.timeNs);
}

TEST(WorkloadOrdering, CrcHostCombineDoesNotScale)
{
    // The CRC serial reduction is host time; it must be visible in
    // the result so Figure 14's scaling flattens.
    const auto w = makeWorkload("CRC-8");
    runtime::PlutoDevice dev(deviceConfig());
    const auto res = w->run(dev, 2048ull * 128);
    EXPECT_GT(res.hostNs, 0.0);
    EXPECT_LT(res.hostNs, res.timeNs);
}

// ---- CRC host reference ----

/** Bit-serial CRC: the definition the table-driven reference must
 *  reproduce. */
u32
bitSerialCrc(u32 width, std::span<const u8> bytes)
{
    u32 crc = width == 8 ? 0 : width == 16 ? 0xffff : 0xffffffffu;
    for (const u8 b : bytes) {
        crc ^= width == 16 ? u32{b} << 8 : u32{b};
        for (int k = 0; k < 8; ++k) {
            if (width == 32)
                crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
            else if (width == 16)
                crc = ((crc & 0x8000) ? (crc << 1) ^ 0x1021 : crc << 1) &
                      0xffff;
            else
                crc = ((crc & 0x80) ? (crc << 1) ^ 0x07 : crc << 1) & 0xff;
        }
    }
    return crc;
}

TEST(CrcReference, TableMatchesBitSerialRule)
{
    for (const u32 width : {8u, 16u, 32u}) {
        const CrcReference ref(width);
        for (const u64 seed : {1, 2, 3, 99}) {
            Rng rng(seed);
            const auto bytes = rng.bytes(rng.below(300));
            EXPECT_EQ(ref.of(bytes), bitSerialCrc(width, bytes))
                << "CRC-" << width << " seed " << seed;
        }
    }
}

TEST(CrcReference, StandardCheckValues)
{
    // Catalogue check values over "123456789": CRC-8 (0x07), CRC-16/
    // CCITT-FALSE, and CRC-32 before its final XOR (~0xCBF43926).
    const std::string s = "123456789";
    const std::span<const u8> check(
        reinterpret_cast<const u8 *>(s.data()), s.size());
    EXPECT_EQ(CrcReference(8).of(check), 0xF4u);
    EXPECT_EQ(CrcReference(16).of(check), 0x29B1u);
    EXPECT_EQ(CrcReference(32).of(check), ~0xCBF43926u);
    EXPECT_EQ(bitSerialCrc(32, check), ~0xCBF43926u);
}

// ---- The host oracle still catches a wrong device result ----

/** Each workload whose verified result passes through a LUT query,
 *  with the library name of that LUT. */
const std::pair<const char *, const char *> kLutBacked[] = {
    {"CRC-8", "crc8"},      {"CRC-16", "crc16"},
    {"CRC-32", "crc32"},    {"ImgBin", "binarize128"},
    {"ColorGrade", "colorgrade"},
    {"ADD4", "add4"},       {"ADD8", "add8"},
    {"MUL4", "mul4"},       {"MUL8", "mul8"},
    {"MULQ1.7", "mulq8"},   {"BC4", "bc4"},
    {"BC8", "bc8"},         {"Bitwise-AND", "and1"},
    {"Bitwise-XOR", "xor1"},
};

TEST(WorkloadOracle, FlippedLutEntryFailsVerification)
{
    for (const auto &[name, lutName] : kLutBacked) {
        const auto w = makeWorkload(name);
        runtime::PlutoDevice dev(deviceConfig());
        // A copy: registering the flipped LUT drops the cached one.
        const core::Lut good = dev.library().get(lutName);
        auto values = good.values();
        values[1] ^= 1;
        dev.library().registerLut(core::Lut(
            lutName, good.indexBits(), good.elemBits(), values));
        // Enough elements that index 1 is queried: 16 per LUT entry
        // covers MUL8's 2^16-entry table too.
        const u64 elements = std::max<u64>(testScale(*w), 16 * good.size());
        EXPECT_FALSE(w->run(dev, elements).verified) << name;
    }
}

TEST(WorkloadOracle, VerifyReachesAMismatchInThePartialLastChunk)
{
    // Tiny rows hold 32 8-bit slots and a wave is 2 rows, so 150
    // elements stage as chunks of 64, 64 and 22.
    runtime::DeviceConfig cfg;
    cfg.geometry = dram::Geometry::tiny();
    cfg.salp = 2;
    runtime::PlutoDevice dev(cfg);
    const auto v = dev.alloc(150, 8);
    Chunker chunks(dev, v);
    ASSERT_EQ(chunks.chunkElements(), 64u);
    const auto value = [](u64 i) { return (i * 37 + 5) & 0xff; };
    std::vector<u64> firsts;
    chunks.write(v, [&](u64 first, std::span<u64> chunk) {
        firsts.push_back(first);
        for (u64 k = 0; k < chunk.size(); ++k)
            chunk[k] = value(first + k);
    });
    EXPECT_EQ(firsts, (std::vector<u64>{0, 64, 128}));
    const auto expected = [&](u64 first, std::span<const u64> chunk) {
        for (u64 k = 0; k < chunk.size(); ++k)
            if (chunk[k] != value(first + k))
                return false;
        return true;
    };
    EXPECT_TRUE(chunks.verify(v, expected));
    std::vector<u64> tail(22);
    for (u64 k = 0; k < tail.size(); ++k)
        tail[k] = value(128 + k);
    tail.back() ^= 1;
    dev.writeAt(v, 128, tail);
    EXPECT_FALSE(chunks.verify(v, expected));
}

// ---- Bounded host memory ----

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PLUTO_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PLUTO_TEST_SANITIZED 1
#endif
#endif

TEST(WorkloadMemory, ColorGradeHostMemoryGrowsUnder3BytesPerElement)
{
#ifdef PLUTO_TEST_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory distorts ru_maxrss";
#endif
    // The device rows themselves hold 2 B per element (8-bit input
    // and output); per-element host vectors cost about 11 B more.
    const auto peakKb = [](u64 elements) {
        return test::childPeakRssKb([elements] {
            runtime::PlutoDevice dev(deviceConfig());
            return makeWorkload("ColorGrade")->run(dev, elements).verified
                       ? 0
                       : 1;
        });
    };
    constexpr u64 small = 1048576, large = 4194304;
    const long a = peakKb(small), b = peakKb(large);
    const double perElem =
        static_cast<double>(b - a) * 1024.0 / (large - small);
    EXPECT_LE(perElem, 3.0) << a << " KiB at " << small << ", " << b
                            << " KiB at " << large;
}

// ---- The measured kernel runs once ----

TEST(WorkloadProgram, EachKernelInstructionRunsOnce)
{
    // The composed-routine workloads pay their scratch allocation and
    // LUT load before resetStats() without running the kernel, so the
    // recorded program holds set-up (allocations, the LUT load) and
    // each kernel instruction exactly once.
    for (const char *name : {"ADD4", "MUL4", "MULQ1.7", "BC8"}) {
        const auto w = makeWorkload(name);
        runtime::PlutoDevice dev(deviceConfig());
        dev.startRecording();
        EXPECT_TRUE(w->run(dev, 4096).verified) << name;
        const isa::Program prog = dev.stopRecording();
        std::map<isa::Opcode, int> kernel;
        for (const auto &instr : prog.instructions())
            if (instr.op != isa::Opcode::RowAlloc &&
                instr.op != isa::Opcode::SubarrayAlloc)
                ++kernel[instr.op];
        EXPECT_EQ(kernel[isa::Opcode::LutOp], 1) << name;
        for (const auto &[op, count] : kernel)
            EXPECT_EQ(count, 1) << name << " " << isa::opcodeName(op);
        // The timed statistics count the kernel alone.
        EXPECT_DOUBLE_EQ(dev.stats().counters.get("isa.instructions"),
                         static_cast<double>(kernel.size()))
            << name;
    }
}

TEST(Registry, AllNamesConstruct)
{
    for (const auto &name : workloadNames())
        EXPECT_EQ(makeWorkload(name)->name(), name);
}

TEST(Registry, Figure7SetMatchesPaper)
{
    const auto set = figure7Workloads();
    ASSERT_EQ(set.size(), 7u);
    EXPECT_EQ(set[0]->name(), "CRC-8");
    EXPECT_EQ(set[6]->name(), "ColorGrade");
}

TEST(Rates, AllPositive)
{
    for (const auto &name : workloadNames()) {
        const auto w = makeWorkload(name);
        const auto r = w->rates();
        EXPECT_GT(r.cpu, 0.0) << name;
        EXPECT_GT(r.gpu, 0.0) << name;
        EXPECT_GT(r.fpga, 0.0) << name;
        EXPECT_GT(r.pnm, 0.0) << name;
    }
}

} // namespace
} // namespace pluto::workloads
