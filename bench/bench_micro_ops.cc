/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: packed
 * element access, row math, the query engine's functional path, the
 * sweep emulation, and the circuit integrator. These guard the
 * simulator's own performance (the figure benches run millions of
 * functional operations).
 */

#include <benchmark/benchmark.h>

#include "circuit/bitline.hh"
#include "common/bitvec.hh"
#include "common/bitvec_bulk.hh"
#include "common/random.hh"
#include "ops/rowmath.hh"
#include "pluto/query_engine.hh"

using namespace pluto;

namespace
{

/** Row bytes used by the scalar-vs-bulk kernel pairs. */
constexpr std::size_t kRowBytes = 8192;

/** A packed row of valid LUT indices plus its LUT, per width. */
struct GatherFixture
{
    explicit GatherFixture(u32 width)
    {
        const u64 size = 1ull << std::min<u32>(width, 8);
        Rng rng(width);
        lut = rng.values(size, 1ull << std::min<u32>(width, 63));
        const u64 n = elementsPerBytes(kRowBytes, width);
        src = packElements(rng.values(n, size), width);
        dst.resize(kRowBytes);
        elements = n;
    }

    std::vector<u64> lut;
    std::vector<u8> src, dst;
    u64 elements = 0;
};

void
BM_GatherScalar(benchmark::State &state)
{
    const u32 width = static_cast<u32>(state.range(0));
    GatherFixture f(width);
    ConstElementView iv(f.src, width);
    ElementView ov(f.dst, width);
    for (auto _ : state) {
        for (u64 i = 0; i < f.elements; ++i)
            ov.set(i, f.lut[iv.get(i)]);
        benchmark::DoNotOptimize(f.dst.data());
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(f.elements));
}
BENCHMARK(BM_GatherScalar)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void
BM_GatherBulk(benchmark::State &state)
{
    const u32 width = static_cast<u32>(state.range(0));
    GatherFixture f(width);
    const bulk::LutGather gather(f.lut, width, "bench");
    for (auto _ : state) {
        gather.apply(f.src, f.dst, f.elements);
        benchmark::DoNotOptimize(f.dst.data());
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(f.elements));
}
BENCHMARK(BM_GatherBulk)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void
BM_PackScalar(benchmark::State &state)
{
    const u32 width = static_cast<u32>(state.range(0));
    const u64 n = elementsPerBytes(kRowBytes, width);
    Rng rng(width + 100);
    const auto values = rng.values(n, 1ull << std::min<u32>(width, 63));
    std::vector<u8> out(kRowBytes);
    ElementView view(out, width);
    for (auto _ : state) {
        for (u64 i = 0; i < n; ++i)
            view.set(i, values[i]);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(n));
}
BENCHMARK(BM_PackScalar)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void
BM_PackBulk(benchmark::State &state)
{
    const u32 width = static_cast<u32>(state.range(0));
    const u64 n = elementsPerBytes(kRowBytes, width);
    Rng rng(width + 100);
    const auto values = rng.values(n, 1ull << std::min<u32>(width, 63));
    std::vector<u8> out(kRowBytes);
    for (auto _ : state) {
        bulk::packBulk(values, width, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(n));
}
BENCHMARK(BM_PackBulk)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void
BM_UnpackScalar(benchmark::State &state)
{
    const u32 width = static_cast<u32>(state.range(0));
    Rng rng(width + 200);
    const auto data = rng.bytes(kRowBytes);
    ConstElementView view(data, width);
    const u64 n = view.size();
    std::vector<u64> out(n);
    for (auto _ : state) {
        for (u64 i = 0; i < n; ++i)
            out[i] = view.get(i);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(n));
}
BENCHMARK(BM_UnpackScalar)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void
BM_UnpackBulk(benchmark::State &state)
{
    const u32 width = static_cast<u32>(state.range(0));
    Rng rng(width + 200);
    const auto data = rng.bytes(kRowBytes);
    const u64 n = elementsPerBytes(kRowBytes, width);
    std::vector<u64> out(n);
    for (auto _ : state) {
        bulk::unpackBulk(data, width, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(n));
}
BENCHMARK(BM_UnpackBulk)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void
BM_ElementViewGetSet(benchmark::State &state)
{
    const u32 width = static_cast<u32>(state.range(0));
    std::vector<u8> buf(8192);
    ElementView view(buf, width);
    const u64 n = view.size();
    u64 i = 0;
    for (auto _ : state) {
        view.set(i % n, i);
        benchmark::DoNotOptimize(view.get((i + 1) % n));
        ++i;
    }
}
BENCHMARK(BM_ElementViewGetSet)->Arg(1)->Arg(4)->Arg(8)->Arg(32);

void
BM_RowXor(benchmark::State &state)
{
    Rng rng(1);
    const auto a = rng.bytes(8192), b = rng.bytes(8192);
    std::vector<u8> out(8192);
    for (auto _ : state) {
        ops::rowXor(a, b, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 8192);
}
BENCHMARK(BM_RowXor);

void
BM_RowShiftLeft(benchmark::State &state)
{
    Rng rng(2);
    auto row = rng.bytes(8192);
    for (auto _ : state) {
        ops::rowShiftLeft(row, static_cast<u32>(state.range(0)));
        benchmark::DoNotOptimize(row.data());
    }
}
BENCHMARK(BM_RowShiftLeft)->Arg(1)->Arg(8);

struct EngineFixture
{
    EngineFixture()
        : mod(dram::Geometry::tiny()),
          sched(dram::TimingParams::ddr4_2400(),
                dram::EnergyParams::ddr4()),
          store(mod, sched),
          engine(mod, sched, core::Design::Bsa)
    {
        const auto lut = core::Lut::fromFunction(
            "sq", 4, 8, [](u64 x) { return (x * x) & 0xff; });
        idx = store.place(lut, {{0, 4}});
        Rng rng(3);
        auto row = mod.rowAt({0, 0, 0});
        ElementView v(row, 8);
        for (u64 i = 0; i < v.size(); ++i)
            v.set(i, rng.below(16));
    }

    dram::Module mod;
    dram::CommandScheduler sched;
    core::LutStore store;
    core::QueryEngine engine;
    u32 idx = 0;
};

void
BM_QueryFunctional(benchmark::State &state)
{
    EngineFixture f;
    auto &p = f.store.placement(f.idx);
    for (auto _ : state)
        f.engine.query(p, {0, 0, 0}, {0, 1, 0});
}
BENCHMARK(BM_QueryFunctional);

void
BM_QueryViaSweep(benchmark::State &state)
{
    EngineFixture f;
    auto &p = f.store.placement(f.idx);
    for (auto _ : state)
        f.engine.queryViaSweep(p, {0, 0, 0}, {0, 1, 0});
}
BENCHMARK(BM_QueryViaSweep);

void
BM_BitlineTransient(benchmark::State &state)
{
    circuit::BitlineSim sim;
    Rng rng(4);
    for (auto _ : state) {
        const auto tr =
            sim.simulate(circuit::CircuitVariant::Bsa, true, true, &rng);
        benchmark::DoNotOptimize(tr.vBitline.data());
    }
}
BENCHMARK(BM_BitlineTransient);

} // namespace

BENCHMARK_MAIN();
