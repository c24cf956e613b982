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
 * charge_model.golden pins the command-charge model itself: for each
 * design x tFAW {0, 0.75} x refresh {off, on}, the exact elapsed
 * time and energy (hex doubles), a hash of every counter, and every
 * traced command span of the functional, batch timed-only, stacked
 * and LUT-load paths.
 *
 * Regeneration: PLUTO_UPDATE_GOLDEN=1 ./test_golden_trace
 * rewrites tests/golden/ in the source tree (see tests/README.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>

#include "common/digest.hh"
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

// ---- Charge model: exact time, energy, counters and trace spans ----

/** One charge-model case: a body run on a freshly built device. */
struct ChargeCase
{
    const char *name;
    std::function<void(PlutoDevice &)> body;
};

std::vector<ChargeCase>
chargeCases()
{
    return {
        {"api_add",
         [](PlutoDevice &dev) {
             const auto a = dev.alloc(16, 8);
             const auto b = dev.alloc(16, 8);
             const auto out = dev.alloc(16, 8);
             dev.write(a, operandValues(16, 16));
             dev.write(b, operandValues(16, 16));
             dev.apiAdd(out, a, b, 4);
         }},
        {"lut_op_x2",
         [](PlutoDevice &dev) {
             const auto lut = dev.loadLut("bc8");
             const auto src = dev.alloc(48, 8);
             const auto dst = dev.alloc(48, 8);
             dev.write(src, operandValues(48, 256));
             dev.lutOp(dst, src, lut);
             dev.lutOp(dst, src, lut);
         }},
        {"timed_only_cold",
         [](PlutoDevice &dev) {
             // An evicted LUT: the first query pays the cold reload.
             const auto lut = dev.loadLut("bc8");
             dev.controller().lutPlacement(lut.reg).loaded = false;
             dev.lutOpTimedOnly(lut, 37, 2);
         }},
        {"timed_only_warm",
         [](PlutoDevice &dev) {
             const auto lut = dev.loadLut("bc8");
             dev.lutOpTimedOnly(lut, 37, 2);
             dev.lutOpTimedOnly(lut, 37, 2);
         }},
        {"stacked_x2",
         [](PlutoDevice &dev) {
             // Two 16-entry LUTs stacked in one subarray, one fused
             // sweep over both at 2-way parallelism.
             auto &store = dev.lutStore();
             const u32 sq = store.place(
                 core::Lut::fromFunction(
                     "sq", 4, 8, [](u64 x) { return (x * x) & 0xff; }),
                 {{0, 2}}, core::LutLoadMethod::FromMemory, 0);
             const u32 inv = store.place(
                 core::Lut::fromFunction(
                     "inv", 4, 8, [](u64 x) { return 15 - x; }),
                 {{0, 2}}, core::LutLoadMethod::FromMemory, 16);
             dev.module().rowAt({0, 0, 0});
             dev.engine().queryStacked(
                 {&store.placement(sq), &store.placement(inv)},
                 {0, 0, 0}, {0, 1, 0}, 2);
         }},
        {"lut_load", [](PlutoDevice &dev) { dev.loadLut("crc8"); }},
    };
}

/**
 * One line per case: elapsed time and command energy as exact hex
 * doubles, the FNV-1a hash of the full counter dump, then every
 * traced command span.
 */
std::string
recordCharges(core::Design design, double faw, bool refresh,
              const ChargeCase &c)
{
    DeviceConfig cfg = tinyConfig(design);
    cfg.fawScale = faw;
    cfg.modelRefresh = refresh;
    PlutoDevice dev(cfg);
    dev.scheduler().setTraceLimit(4096);
    c.body(dev);

    const auto &sched = dev.scheduler();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s faw=%g refresh=%d %s elapsed=%a energy=%a "
                  "counters=%s spans=%zu",
                  core::designName(design), faw, refresh ? 1 : 0, c.name,
                  sched.elapsed(), sched.energyTotal(),
                  fnv1aHex(sched.stats().format()).c_str(),
                  sched.trace().size());
    std::string line = buf;
    for (const auto &ev : sched.trace()) {
        std::snprintf(buf, sizeof(buf), " %s@%a-%a", ev.name.c_str(),
                      ev.start, ev.end);
        line += buf;
    }
    return line + '\n';
}

TEST(ChargeModel, MatchesCheckedInFile)
{
    std::string got;
    for (const auto design :
         {core::Design::Bsa, core::Design::Gsa, core::Design::Gmc})
        for (const double faw : {0.0, 0.75})
            for (const bool refresh : {false, true})
                for (const auto &c : chargeCases())
                    got += recordCharges(design, faw, refresh, c);
    test::expectGolden("charge_model", got,
                       "scheduler or query-engine charge model");
}

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
