/**
 * @file
 * Property-based tests over wide parameter sweeps: query-engine
 * correctness across every (element width x design) combination
 * against both the sweep emulation and a scalar reference; tFAW
 * window invariants under random loads; packed-element views (and
 * their bulk fill, incl. LUT materialization) against a naive model;
 * scheduler time/energy accounting linearity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "common/bitvec.hh"
#include "common/random.hh"
#include "pluto/query_engine.hh"
#include "runtime/device.hh"

namespace pluto
{
namespace
{

using core::Design;
using core::Lut;

// ---- Query engine: width x design sweep ----

using WidthDesign = std::tuple<u32, Design>;

class QueryProperty : public ::testing::TestWithParam<WidthDesign>
{
};

TEST_P(QueryProperty, FastPathSweepPathAndScalarAgree)
{
    const auto [width, design] = GetParam();
    dram::Module mod(dram::Geometry::tiny());
    dram::CommandScheduler sched(dram::TimingParams::ddr4_2400(),
                                 dram::EnergyParams::ddr4());
    core::LutStore store(mod, sched);
    core::QueryEngine engine(mod, sched, design);

    // Index width <= min(width, 6): tiny subarrays hold 64 rows.
    const u32 index_bits = std::min(width, 6u);
    Rng rng(width * 100 + static_cast<u32>(design));
    const u64 mask = width >= 64 ? ~0ull : (1ull << width) - 1;
    std::vector<u64> values(1ull << index_bits);
    for (auto &v : values)
        v = rng.next() & mask;
    const Lut lut("prop", index_bits, width, values);
    auto &p = store.placement(store.place(lut, {{0, 2}}));

    // Random input row.
    auto row = mod.rowAt({0, 0, 0});
    ElementView iv(row, width);
    std::vector<u64> inputs(iv.size());
    for (u64 s = 0; s < iv.size(); ++s) {
        inputs[s] = rng.below(lut.size());
        iv.set(s, inputs[s]);
    }

    engine.query(p, {0, 0, 0}, {0, 1, 0});
    if (design == Design::Gsa)
        store.load(p, core::LutLoadMethod::FromMemory);
    engine.queryViaSweep(p, {0, 0, 0}, {0, 1, 1});

    const auto fast = mod.readRow({0, 1, 0});
    const auto emu = mod.readRow({0, 1, 1});
    EXPECT_EQ(fast, emu);

    ConstElementView ov(fast, width);
    for (u64 s = 0; s < ov.size(); ++s)
        EXPECT_EQ(ov.get(s), lut.at(inputs[s]))
            << "width " << width << " slot " << s;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueryProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 16u, 32u),
                       ::testing::Values(Design::Bsa, Design::Gsa,
                                         Design::Gmc)),
    [](const auto &info) {
        std::string name = "w";
        name += std::to_string(std::get<0>(info.param));
        name += '_';
        name += std::string_view(
                    core::designName(std::get<1>(info.param)))
                    .substr(6);
        return name;
    });

// ---- tFAW window invariant under random loads ----

class FawProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(FawProperty, NeverMoreThanFourActsPerWindow)
{
    const TimeNs window = 13.328;
    dram::FawTracker faw(window);
    Rng rng(GetParam());
    std::vector<TimeNs> issued;
    TimeNs t = 0.0;
    for (int k = 0; k < 500; ++k) {
        t += rng.uniform(0.0, 6.0); // random arrival pressure
        issued.push_back(faw.reserve(t));
    }
    // Issue times are monotone, never earlier than requested, and at
    // most 4 fall in any window.
    for (std::size_t i = 1; i < issued.size(); ++i)
        EXPECT_GE(issued[i], issued[i - 1]);
    for (std::size_t i = 0; i + 4 < issued.size(); ++i)
        EXPECT_GE(issued[i + 4] - issued[i], window - 1e-9)
            << "window violated at " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FawProperty,
                         ::testing::Range<u64>(0, 10));

// ---- reserveBatch == n successive reserve calls ----

class FawBatchProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(FawBatchProperty, BatchEquivalentToSuccessiveReserves)
{
    Rng rng(GetParam() * 31 + 5);
    // Windows: disabled, nominal-ish, and random. Counts cross the
    // 4-ACT boundary in both directions.
    const TimeNs windows[] = {0.0, 13.328, rng.uniform(0.5, 40.0)};
    const u64 counts[] = {0, 1, 2, 3, 4, 5, 8, 9, 17, 64, 501};
    for (const TimeNs window : windows) {
        for (const u64 count : counts) {
            dram::FawTracker batch(window), loop(window);
            // Random prior state so the batch starts mid-window.
            const u32 prior = static_cast<u32>(rng.below(7));
            TimeNs t = 0.0;
            for (u32 j = 0; j < prior; ++j) {
                t += rng.uniform(0.0, 10.0);
                batch.reserve(t);
                loop.reserve(t);
            }
            const TimeNs candidate = t + rng.uniform(0.0, 5.0);

            const TimeNs got = batch.reserveBatch(candidate, count);

            // Reference semantics: each subsequent ACT's candidate
            // is its predecessor's issue time.
            TimeNs want = candidate;
            for (u64 i = 0; i < count; ++i)
                want = loop.reserve(i == 0 ? candidate : want);
            EXPECT_DOUBLE_EQ(got, want)
                << "window " << window << " count " << count;

            // The trackers must also agree on every later decision.
            TimeNs probe = got;
            for (int k = 0; k < 8; ++k) {
                probe += rng.uniform(0.0, 6.0);
                EXPECT_DOUBLE_EQ(batch.reserve(probe),
                                 loop.reserve(probe))
                    << "window " << window << " count " << count
                    << " probe " << k;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FawBatchProperty,
                         ::testing::Range<u64>(0, 10));

// ---- Scheduler burst == per-command loop ----

/**
 * `batch` holds the same counters as `loop`, bit-identical except the
 * ".ns" time sums, which may differ in the final ulps: one product
 * replaces `reps` accumulations.
 */
void
expectCountersMatch(const StatSet &batch, const StatSet &loop,
                    const std::string &what)
{
    EXPECT_EQ(batch.counters().size(), loop.counters().size()) << what;
    for (const auto &[name, value] : loop.counters()) {
        if (name.size() > 3 &&
            name.compare(name.size() - 3, 3, ".ns") == 0) {
            EXPECT_NEAR(batch.get(name), value,
                        1e-9 * std::max(1.0, value))
                << name << " " << what;
        } else {
            EXPECT_DOUBLE_EQ(batch.get(name), value)
                << name << " " << what;
        }
    }
}

TEST(SchedulerProperty, BurstMatchesPerCommandLoop)
{
    const auto t = dram::TimingParams::ddr4_2400();
    const auto e = dram::EnergyParams::ddr4();
    Rng rng(4242);
    for (int trial = 0; trial < 30; ++trial) {
        const double faw = trial % 3 ? rng.uniform(0.1, 1.0) : 0.0;
        const bool refresh = rng.below(2) != 0;
        dram::CommandScheduler burst(t, e, faw);
        dram::CommandScheduler loop(t, e, faw);
        burst.setModelRefresh(refresh);
        loop.setModelRefresh(refresh);

        // A random heterogeneous command group, like a reload +
        // sweep + result-move bulk-query burst.
        std::vector<dram::BurstStep> steps(1 + rng.below(3));
        for (auto &st : steps) {
            st.isSweep = rng.below(2) != 0;
            st.parallel = 1 + static_cast<u32>(rng.below(16));
            if (st.isSweep) {
                st.stat = "pluto.sweep";
                st.rows = 1 + static_cast<u32>(rng.below(32));
                st.latency = rng.uniform(1.0, 30.0);
                st.energy = rng.uniform(0.1, 200.0);
                st.tailLatency = rng.uniform(0.0, 15.0);
                st.tailEnergy = rng.uniform(0.0, 50.0);
            } else {
                st.stat = "cmd.op";
                st.latency = rng.uniform(1.0, 60.0);
                st.energy = rng.uniform(0.1, 500.0);
                st.numActs = static_cast<u32>(rng.below(3));
            }
        }
        const u64 reps = 1 + rng.below(40);

        burst.burst(steps, reps);
        for (u64 k = 0; k < reps; ++k)
            for (const auto &st : steps) {
                if (st.isSweep)
                    loop.sweep(st.stat, st.rows, st.latency,
                               st.energy, st.parallel,
                               st.tailLatency, st.tailEnergy);
                else
                    loop.op(st.stat, st.latency, st.energy,
                            st.numActs, st.parallel);
            }

        EXPECT_DOUBLE_EQ(burst.elapsed(), loop.elapsed()) << trial;
        EXPECT_DOUBLE_EQ(burst.energyTotal(), loop.energyTotal())
            << trial;
        expectCountersMatch(burst.stats(), loop.stats(),
                            "trial " + std::to_string(trial));

        // Subsequent commands see identical tFAW window state.
        burst.op("cmd.post", 5.0, 1.0, 2, 3);
        loop.op("cmd.post", 5.0, 1.0, 2, 3);
        EXPECT_DOUBLE_EQ(burst.elapsed(), loop.elapsed()) << trial;
    }
}

// ---- Packed views vs naive bit model ----

class ViewProperty : public ::testing::TestWithParam<u32>
{
};

TEST_P(ViewProperty, MatchesNaiveBitModel)
{
    const u32 width = GetParam();
    Rng rng(width * 7);
    std::vector<u8> buf(48, 0);
    ElementView view(buf, width);
    const u64 n = view.size();

    // Reference: explicit bit array.
    std::vector<u8> bits(48 * 8, 0);
    auto ref_set = [&](u64 idx, u64 v) {
        for (u32 b = 0; b < width; ++b)
            bits[idx * width + b] = (v >> b) & 1;
    };
    auto ref_get = [&](u64 idx) {
        u64 v = 0;
        for (u32 b = 0; b < width; ++b)
            v |= static_cast<u64>(bits[idx * width + b]) << b;
        return v;
    };

    for (int step = 0; step < 500; ++step) {
        const u64 idx = rng.below(n);
        const u64 v = rng.next();
        view.set(idx, v);
        ref_set(idx, v & (width >= 64 ? ~0ull : (1ull << width) - 1));
        const u64 probe = rng.below(n);
        EXPECT_EQ(view.get(probe), ref_get(probe))
            << "width " << width << " step " << step;
    }
}

TEST_P(ViewProperty, FillMatchesScalarSets)
{
    // The bulk fill equals one set() per element, and leaves the
    // tail bytes past the last whole element untouched.
    const u32 width = GetParam();
    Rng rng(width * 13);
    for (const u64 bytes : {1u, 3u, 4u, 7u, 32u, 61u, 8192u}) {
        std::vector<u8> bulk(bytes);
        for (auto &b : bulk)
            b = static_cast<u8>(rng.next());
        std::vector<u8> scalar = bulk;
        const u64 value = rng.next();
        ElementView(bulk, width).fill(value);
        ElementView sv(scalar, width);
        for (u64 i = 0; i < sv.size(); ++i)
            sv.set(i, value);
        EXPECT_EQ(bulk, scalar) << "width " << width << " bytes "
                                << bytes;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, ViewProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

// ---- Bulk-query batch fast path == per-query loop ----

class TimedOnlyBatchProperty
    : public ::testing::TestWithParam<Design>
{
};

/**
 * One 37-query lutOpTimedOnly call equals 37 one-query calls in time,
 * energy and every counter. A `cold` LUT is evicted first, so the
 * first query pays the cold reload.
 */
void
expectBatchMatchesPerQueryLoop(Design design, bool cold)
{
    runtime::DeviceConfig cfg;
    cfg.design = design;
    cfg.geometry = dram::Geometry::tiny();
    cfg.salp = 2;
    cfg.fawScale = 0.75; // stress the tFAW tracker too

    runtime::PlutoDevice batch(cfg), loop(cfg);
    const auto lutA = batch.loadLut("bc8");
    const auto lutB = loop.loadLut("bc8");
    if (cold) {
        batch.controller().lutPlacement(lutA.reg).loaded = false;
        loop.controller().lutPlacement(lutB.reg).loaded = false;
    }
    batch.resetStats();
    loop.resetStats();

    batch.lutOpTimedOnly(lutA, 37, 2);
    for (int k = 0; k < 37; ++k)
        loop.lutOpTimedOnly(lutB, 1, 2);

    const auto a = batch.stats();
    const auto b = loop.stats();
    EXPECT_DOUBLE_EQ(a.timeNs, b.timeNs);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
    expectCountersMatch(a.counters, b.counters, cold ? "cold" : "warm");
    EXPECT_EQ(a.counters.get("pluto.lut_reload.cold"),
              cold && design != Design::Gsa ? 1.0 : 0.0);
}

TEST_P(TimedOnlyBatchProperty, MatchesPerQueryLoop)
{
    expectBatchMatchesPerQueryLoop(GetParam(), false);
}

TEST_P(TimedOnlyBatchProperty, MatchesPerQueryLoopFromAColdLut)
{
    expectBatchMatchesPerQueryLoop(GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(Designs, TimedOnlyBatchProperty,
                         ::testing::Values(Design::Bsa, Design::Gsa,
                                           Design::Gmc),
                         [](const auto &info) {
                             return std::string(core::designName(
                                        info.param))
                                 .substr(6);
                         });

// ---- Scheduler accounting linearity ----

TEST(SchedulerProperty, TimeAndEnergyAreAdditive)
{
    const auto t = dram::TimingParams::ddr4_2400();
    const auto e = dram::EnergyParams::ddr4();
    Rng rng(77);
    dram::CommandScheduler once(t, e), twice(t, e);
    double total_ns = 0, total_pj = 0;
    for (int k = 0; k < 100; ++k) {
        const double ns = rng.uniform(1.0, 100.0);
        const double pj = rng.uniform(1.0, 1000.0);
        const u32 par = 1 + static_cast<u32>(rng.below(16));
        once.op("cmd.x", ns, pj, 0, par);
        total_ns += ns;
        total_pj += pj * par;
    }
    EXPECT_NEAR(once.elapsed(), total_ns, 1e-6);
    EXPECT_NEAR(once.energyTotal(), total_pj, 1e-6);
    (void)twice;
}

TEST(SchedulerProperty, ThrottledSweepNeverFasterThanUnthrottled)
{
    const auto t = dram::TimingParams::ddr4_2400();
    const auto e = dram::EnergyParams::ddr4();
    Rng rng(78);
    for (int trial = 0; trial < 50; ++trial) {
        const u32 rows = 1 + static_cast<u32>(rng.below(64));
        const u32 par = 1 + static_cast<u32>(rng.below(32));
        dram::CommandScheduler free(t, e, 0.0);
        dram::CommandScheduler throttled(
            t, e, rng.uniform(0.1, 1.0));
        free.sweep("pluto.sweep", rows, t.tRCD, 1.0, par);
        throttled.sweep("pluto.sweep", rows, t.tRCD, 1.0, par);
        EXPECT_GE(throttled.elapsed() + 1e-9, free.elapsed());
        EXPECT_DOUBLE_EQ(throttled.energyTotal(), free.energyTotal());
    }
}

} // namespace
} // namespace pluto
