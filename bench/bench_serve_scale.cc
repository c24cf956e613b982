/**
 * @file
 * Serving-core scaling: batch-signature memoization on the fleet
 * regime (open-loop Poisson, Zipf-skewed four-class mix, adaptive
 * batching — service_fleet.ini's shape) at growing pool sizes:
 * memo=on replay vs the memo=off execute-everything oracle, rows
 *     serve_memo,<devices>,<mode>,<requests>,<wall_ms>,<sim_rps>
 *     serve_memo_speedup,<devices>,<ratio>
 * (scripts/bench_report.sh folds these into BENCH_report.json).
 *
 * Exit-code-enforced invariants: memo on/off outcomes are
 * bit-identical at every pool size, and at 256 devices memo=on
 * sustains at least 5x memo=off simulated throughput.
 */

#include "bench_common.hh"
#include "serve/simulator.hh"

using namespace pluto;
using namespace pluto::bench;

namespace
{

sim::DeviceSpec
variant()
{
    sim::DeviceSpec ds;
    ds.name = "gmc-salp128";
    ds.config.design = core::Design::Gmc;
    ds.config.salp = 128;
    return ds;
}

bool
sameOutcome(const serve::ServiceOutcome &a,
            const serve::ServiceOutcome &b)
{
    return a.requests == b.requests && a.batches == b.batches &&
           a.makespanMs == b.makespanMs &&
           a.throughputRps == b.throughputRps &&
           a.meanMs == b.meanMs && a.p50Ms == b.p50Ms &&
           a.p99Ms == b.p99Ms && a.p999Ms == b.p999Ms &&
           a.maxMs == b.maxMs && a.pjPerRequest == b.pjPerRequest;
}

/** service_fleet.ini's serving shape, scaled to the pool size:
 *  open-loop Poisson arrivals just under capacity, Zipf-skewed
 *  tenants, adaptive batching. Constant total work across pools. */
sim::ServiceSpec
fleetService(u32 devices)
{
    sim::ServiceSpec svc;
    svc.name = "fleet-" + std::to_string(devices);
    svc.policy = sim::BatchPolicyKind::Adaptive;
    svc.ratePerSec = 34000.0 * devices;
    svc.durationMs = 4400.0 / devices;
    svc.batch = 64;
    svc.devices = devices;
    svc.lanes = 16;
    svc.seed = 11;
    svc.tenantSkew = 2.0;
    svc.sloMs = 2.0;
    return svc;
}

/** service_fleet.ini's four-tenant mix: three pixel classes plus
 *  the heavy CRC-8 cold tenant that shapes the tail. */
std::vector<serve::RequestClass>
fleetMix()
{
    const struct
    {
        const char *workload;
        u32 tenant;
        double weight;
    } defs[] = {
        {"ColorGrade", 0, 1.0},
        {"ImgBin", 1, 0.8},
        {"Bitwise-XOR", 2, 0.6},
        {"CRC-8", 3, 0.4},
    };
    std::vector<serve::RequestClass> m;
    for (const auto &d : defs) {
        serve::RequestClass c;
        c.workload = d.workload;
        c.elements = 1024;
        c.tenant = d.tenant;
        c.weight = d.weight;
        m.push_back(c);
    }
    return m;
}

} // namespace

int
main()
{
    const auto ds = variant();
    const u32 pools[] = {8, 64, 256};
    bool ok = true;

    section("Batch-signature memoization: replay vs the "
            "execute-everything oracle (fleet regime: open-loop "
            "Poisson, Zipf tenants, adaptive batching; loop-only "
            "wall time)");

    const auto fm = fleetMix();
    const auto fcal =
        serve::ServeSimulator::calibrateAll(ds.config, fm);
    AsciiTable mt({"devices", "requests", "off loop ms",
                   "on loop ms", "off req/s", "on req/s",
                   "speedup"});
    std::string mcsv;
    for (const u32 devices : pools) {
        auto offSpec = fleetService(devices);
        offSpec.memo = sim::MemoMode::Off;
        auto onSpec = fleetService(devices);
        onSpec.memo = sim::MemoMode::On;
        const auto off =
            serve::ServeSimulator(ds, offSpec, fm).run(&fcal);
        const auto on =
            serve::ServeSimulator(ds, onSpec, fm).run(&fcal);

        if (!sameOutcome(off, on)) {
            std::printf("FAIL: memo on/off outcomes disagree at %u "
                        "devices (off %llu req, on %llu req)\n",
                        devices,
                        (unsigned long long)off.requests,
                        (unsigned long long)on.requests);
            ok = false;
            continue;
        }

        const double req = static_cast<double>(off.requests);
        const double offRps = req / (off.loopHostMs * 1e-3);
        const double onRps = req / (on.loopHostMs * 1e-3);
        const double speedup = offRps > 0 ? onRps / offRps : 0;
        mt.addRow({std::to_string(devices),
                   std::to_string(off.requests),
                   fmtSig(off.loopHostMs), fmtSig(on.loopHostMs),
                   fmtSig(offRps), fmtSig(onRps),
                   fmtSig(speedup, 3)});
        char line[256];
        std::snprintf(line, sizeof line,
                      "serve_memo,%u,off,%llu,%.3f,%.0f\n"
                      "serve_memo,%u,on,%llu,%.3f,%.0f\n"
                      "serve_memo_speedup,%u,%.2f\n",
                      devices,
                      (unsigned long long)off.requests,
                      off.loopHostMs, offRps, devices,
                      (unsigned long long)on.requests,
                      on.loopHostMs, onRps, devices, speedup);
        mcsv += line;

        if (devices >= 256 && speedup < 5.0) {
            std::printf("FAIL: memo speedup %.2fx at %u devices "
                        "(expected >= 5x)\n",
                        speedup, devices);
            ok = false;
        }
    }
    std::printf("%s\n%s", mt.render().c_str(), mcsv.c_str());

    if (!ok)
        return 1;
    std::printf("OK: outcomes bit-identical across memo modes; "
                ">=5x memo sim-throughput at 256 devices\n");
    return 0;
}
