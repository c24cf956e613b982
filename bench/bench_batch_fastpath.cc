/**
 * @file
 * Scheduler batch fast path: wall-clock of accounting a bulk
 * LUT-query row-burst through the per-query path (one
 * lutOpTimedOnly call per query: per-query stats strings, map lookups
 * and trace checks) versus the batch path (one
 * CommandScheduler::burst() submission per homogeneous burst), for
 * each pLUTo design with the tFAW window both disabled (paper
 * default) and nominal. The two paths must agree bit for bit on
 * simulated time and energy — the speedup is pure host-side
 * bookkeeping elimination, not model change — so any divergence
 * fails the bench.
 */

#include <chrono>

#include "bench_common.hh"

using namespace pluto;
using namespace pluto::bench;

namespace
{

/*
 * 250 queries is enough to amortize setup and keep the per-cmd/batch
 * ratio stable while fitting the release-bench CI budget (1000 took
 * ~55 s of wall there); the bit-identity assertion is per-cell and
 * does not depend on the count.
 */
constexpr u64 kQueries = 250;
constexpr u32 kParallel = 16;

double
msSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

runtime::DeviceConfig
deviceConfig(core::Design design, double faw)
{
    runtime::DeviceConfig cfg;
    cfg.design = design;
    cfg.fawScale = faw;
    return cfg;
}

struct PathResult
{
    double wallMs = 0.0;
    double timeNs = 0.0;
    double energyPj = 0.0;
};

PathResult
runPath(core::Design design, double faw, bool batch)
{
    runtime::PlutoDevice dev(deviceConfig(design, faw));
    const auto lut = dev.loadLut("colorgrade");
    dev.resetStats();
    const auto t0 = std::chrono::steady_clock::now();
    if (batch) {
        dev.lutOpTimedOnly(lut, kQueries, kParallel);
    } else {
        for (u64 q = 0; q < kQueries; ++q)
            dev.lutOpTimedOnly(lut, 1, kParallel);
    }
    PathResult r;
    r.wallMs = msSince(t0);
    const auto stats = dev.stats();
    r.timeNs = stats.timeNs;
    r.energyPj = stats.energyPj;
    return r;
}

} // namespace

int
main()
{
    section("Scheduler batch fast path: bulk LUT-query accounting, "
            "per-command vs batch submission");

    std::printf("%llu queries x %u lanes per cell\n\n",
                static_cast<unsigned long long>(kQueries), kParallel);
    AsciiTable t({"Design", "tFAW", "per-cmd ms", "batch ms",
                  "speedup", "totals"});
    bool ok = true;
    std::vector<double> speedups;
    for (const auto design :
         {core::Design::Bsa, core::Design::Gsa, core::Design::Gmc}) {
        for (const double faw : {0.0, 1.0}) {
            const auto slow = runPath(design, faw, false);
            const auto fast = runPath(design, faw, true);
            const bool equal = slow.timeNs == fast.timeNs &&
                               slow.energyPj == fast.energyPj;
            ok = ok && equal;
            speedups.push_back(slow.wallMs / fast.wallMs);
            t.addRow({core::designName(design),
                      faw == 0.0 ? "off" : "nominal",
                      fmtSig(slow.wallMs), fmtSig(fast.wallMs),
                      fmtX(slow.wallMs / fast.wallMs),
                      equal ? "bit-identical" : "DIVERGED"});
        }
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nGMEAN speedup: %s (host bookkeeping only; "
                "simulated time/energy unchanged)\n",
                fmtX(geomean(speedups)).c_str());
    if (!ok) {
        std::fprintf(stderr, "FAIL: batch path diverged from "
                             "per-command totals\n");
        return 1;
    }
    return 0;
}
