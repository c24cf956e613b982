/**
 * @file
 * Golden-trace tests: the ISA instruction streams (and the timing /
 * energy totals they produce) of a small fixed set of pLUTo Library
 * calls on Geometry::tiny() are pinned against checked-in golden
 * files. Every result in the repo derives from these command
 * streams, so aggressive refactors of the scheduler / query engine /
 * controller hot paths must keep them byte-stable — any intended
 * model change shows up as a reviewable golden diff.
 *
 * Regeneration: PLUTO_UPDATE_GOLDEN=1 ./test_golden_trace
 * rewrites tests/golden/ in the source tree (see tests/README.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>

#include "golden.hh"
#include "runtime/device.hh"

namespace pluto::runtime
{
namespace
{

DeviceConfig
tinyConfig(core::Design d)
{
    DeviceConfig cfg;
    cfg.design = d;
    cfg.geometry = dram::Geometry::tiny();
    cfg.salp = 2;
    return cfg;
}

/** Deterministic operand values below `bound`. */
std::vector<u64>
operandValues(u64 n, u64 bound)
{
    std::vector<u64> v(n);
    for (u64 i = 0; i < n; ++i)
        v[i] = (i * 37 + 11) % bound;
    return v;
}

/**
 * Record one API call's instruction stream plus a stats footer. The
 * footer pins the command-level timing model: a refactor that keeps
 * the instruction list but changes scheduler accounting still fails
 * the golden comparison.
 */
std::string
recordTrace(core::Design design,
            const std::function<void(PlutoDevice &)> &body)
{
    PlutoDevice dev(tinyConfig(design));
    dev.startRecording();
    body(dev);
    const isa::Program prog = dev.stopRecording();
    EXPECT_TRUE(prog.validate().empty()) << prog.validate();

    const auto stats = dev.stats();
    std::ostringstream out;
    out << prog.disassemble();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "# elapsed_ns %.6f\n# energy_pj %.6f\n"
                  "# dram_acts %.0f\n# isa_instructions %.0f\n",
                  stats.timeNs, stats.energyPj,
                  stats.counters.get("dram.acts"),
                  stats.counters.get("isa.instructions"));
    out << buf;
    return out.str();
}

struct GoldenCase
{
    const char *name;
    core::Design design;
    std::function<void(PlutoDevice &)> body;
};

std::vector<GoldenCase>
goldenCases()
{
    return {
        {"api_pluto_add", core::Design::Bsa,
         [](PlutoDevice &dev) {
             const auto a = dev.alloc(16, 8);
             const auto b = dev.alloc(16, 8);
             const auto out = dev.alloc(16, 8);
             dev.write(a, operandValues(16, 16));
             dev.write(b, operandValues(16, 16));
             dev.apiAdd(out, a, b, 4);
         }},
        {"api_pluto_mul", core::Design::Gmc,
         [](PlutoDevice &dev) {
             const auto a = dev.alloc(16, 8);
             const auto b = dev.alloc(16, 8);
             const auto out = dev.alloc(16, 8);
             dev.write(a, operandValues(16, 16));
             dev.write(b, operandValues(16, 16));
             dev.apiMul(out, a, b, 4);
         }},
        {"bulk_lut_query", core::Design::Gsa,
         [](PlutoDevice &dev) {
             const auto lut = dev.loadLut("bc8");
             const auto src = dev.alloc(48, 8);
             const auto dst = dev.alloc(48, 8);
             dev.write(src, operandValues(48, 256));
             // Two back-to-back bulk queries: the second exercises
             // the pLUTo-GSA reload-per-query path.
             dev.lutOp(dst, src, lut);
             dev.lutOp(dst, src, lut);
         }},
    };
}

class GoldenTrace : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GoldenTrace, MatchesCheckedInFile)
{
    const auto cases = goldenCases();
    const GoldenCase &c = cases[GetParam()];
    test::expectGolden(c.name, recordTrace(c.design, c.body),
                       "instruction stream or timing model");
}

INSTANTIATE_TEST_SUITE_P(Cases, GoldenTrace,
                         ::testing::Range<std::size_t>(
                             0, goldenCases().size()),
                         [](const auto &info) {
                             const auto cases = goldenCases();
                             return std::string(
                                 cases[info.param].name);
                         });

/**
 * The recorded program must be re-executable: feeding the golden
 * instruction stream back through a fresh Controller reproduces the
 * same timing totals as the recording run (replay determinism).
 */
TEST(GoldenTrace, RecordedProgramReplaysIdentically)
{
    const auto cases = goldenCases();
    const GoldenCase &c = cases[0];
    PlutoDevice rec(tinyConfig(c.design));
    rec.startRecording();
    c.body(rec);
    const isa::Program prog = rec.stopRecording();

    PlutoDevice replay(tinyConfig(c.design));
    replay.controller().execute(prog);
    EXPECT_DOUBLE_EQ(replay.stats().timeNs, rec.stats().timeNs);
    EXPECT_DOUBLE_EQ(replay.stats().energyPj, rec.stats().energyPj);
}

} // namespace
} // namespace pluto::runtime
