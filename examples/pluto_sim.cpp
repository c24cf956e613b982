/**
 * @file
 * pluto_sim: the campaign CLI. Takes a scenario file (see
 * examples/scenarios/) and runs it in one of the registered campaign
 * modes — all sharing the campaign core's thread-pool fan-out,
 * sharding, JSONL caching and deterministic output discipline (see
 * src/campaign/):
 *
 *   (default)  batch    variant x workload x repeat simulation grid
 *   --service  service  request-level serving simulator (src/serve/)
 *   --nn       nn       quantized LeNet-5 inference grid (src/nn/)
 *
 * All flag plumbing lives in campaign/cli; this file only registers
 * the modes: each contributes its help text, banner, progress line,
 * summary table and output sink. `pluto_sim --help` enumerates every
 * mode from this registry.
 */

#include <cstdio>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "campaign/cli.hh"
#include "common/emit.hh"
#include "common/table.hh"
#include "nn/campaign.hh"
#include "nn/pluto_qnn.hh"
#include "serve/runner.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"

using namespace pluto;
using campaign::CliInvocation;
using campaign::finishCampaign;

namespace
{

/** Shared "shard holds no cells" short-circuit. */
bool
emptyShard(std::size_t cells, const CliInvocation &inv)
{
    if (cells)
        return false;
    std::printf("shard %u/%u holds no runs; nothing to do\n",
                inv.opt.shardIndex, inv.opt.shardCount);
    return true;
}

/** Batch mode: run the variant x workload x repeat cross product. */
int
runBatch(const sim::SimConfig &cfg, const CliInvocation &inv)
{
    if (cfg.workloads.empty()) {
        std::fprintf(stderr,
                     "batch mode: scenario declares no [workload] "
                     "sections (nn-only scenario? use --nn)\n");
        return 1;
    }
    const sim::ScenarioRunner runner(cfg);
    const auto progress = [&](const sim::RunRecord &r, u64 done,
                              u64 total) {
        std::fprintf(stderr,
                     "[%llu/%llu] %s / %s #%u: %.2f us, %.3f "
                     "pJ/elem, %s (%.0f ms)\n",
                     static_cast<unsigned long long>(done),
                     static_cast<unsigned long long>(total),
                     r.variant.c_str(), r.workload.c_str(), r.repeat,
                     r.out.timeNs * 1e-3, r.out.pjPerElem(),
                     r.out.verified ? "ok" : "VERIFY FAILED",
                     r.out.wallMs);
    };
    const auto report = runner.run(
        inv.opt,
        inv.quiet ? sim::ScenarioRunner::Progress() : progress);
    if (emptyShard(report.runs.size(), inv))
        return 0;

    // Per-cell mean table (repeats folded together).
    AsciiTable table({"variant", "workload", "runs", "elements",
                      "seed", "ns/elem", "pJ/elem", "vs CPU", "ok"});
    for (const auto &c : sim::MetricsSink::aggregate(report)) {
        table.addRow({c.variant, c.workload, std::to_string(c.runs),
                      std::to_string(c.elements),
                      std::to_string(c.seed), fmtSig(c.nsPerElem),
                      fmtSig(c.pjPerElem),
                      c.nsPerElem > 0.0
                          ? fmtX(c.rates.cpu / c.nsPerElem)
                          : "-",
                      c.verified ? "yes" : "NO"});
    }
    std::printf("\n%s\n", table.render().c_str());
    return finishCampaign(
        inv, report, report.allVerified(),
        [&](const std::string &suffix,
            std::vector<std::string> &written) {
            return sim::MetricsSink::write(cfg, report, written,
                                           suffix);
        });
}

/** Service mode: run the variant x service serving simulations. */
int
runService(const sim::SimConfig &cfg, const CliInvocation &inv)
{
    if (cfg.services.empty()) {
        std::fprintf(stderr,
                     "--service: scenario declares no [service] "
                     "sections\n");
        return 1;
    }
    // An nn-only scenario (no [workload] request mix) is rejected by
    // ServiceRunner::run itself, covering every caller.

    const serve::ServiceRunner runner(cfg);
    const auto progress = [&](const serve::ServiceRunRecord &r,
                              u64 done, u64 total) {
        std::fprintf(stderr,
                     "[%llu/%llu] %s / %s: %llu req, p99 %.3f ms, "
                     "%.0f req/s, %s\n",
                     static_cast<unsigned long long>(done),
                     static_cast<unsigned long long>(total),
                     r.variant.c_str(), r.service.c_str(),
                     static_cast<unsigned long long>(r.out.requests),
                     r.out.p99Ms, r.out.throughputRps,
                     r.out.verified ? "ok" : "VERIFY FAILED");
    };
    const auto report = runner.run(
        inv.opt,
        inv.quiet ? serve::ServiceRunner::Progress() : progress);
    if (emptyShard(report.runs.size(), inv))
        return 0;

    AsciiTable table({"variant", "service", "policy", "req", "req/s",
                      "batch", "p50 ms", "p99 ms", "p99.9 ms", "util",
                      "ok"});
    for (const auto &r : report.runs)
        table.addRow({r.variant, r.service, r.policy,
                      std::to_string(r.out.requests),
                      fmtSig(r.out.throughputRps),
                      fmtSig(r.out.meanBatch, 3),
                      fmtSig(r.out.p50Ms), fmtSig(r.out.p99Ms),
                      fmtSig(r.out.p999Ms), fmtPct(r.out.utilization),
                      r.out.verified ? "yes" : "NO"});
    std::printf("\n%s\n", table.render().c_str());
    return finishCampaign(
        inv, report, report.allVerified(),
        [&](const std::string &suffix,
            std::vector<std::string> &written) {
            std::string err = serve::ServiceMetricsSink::write(
                cfg, report.runs, report.wallMs, written, suffix);
            if (!err.empty())
                return err;
            // Side-band analysis files: the data is computed (and
            // cached) unconditionally, the flags only choose whether
            // these files appear. Sharded runs get the same suffix
            // as the main outputs.
            if (!inv.tailReportPath.empty()) {
                const std::string path =
                    inv.tailReportPath + suffix;
                err = writeTextFile(
                    path, serve::ServiceMetricsSink::renderTailReport(
                              cfg, report.runs));
                if (!err.empty())
                    return err;
                written.push_back(path);
            }
            if (!inv.timeseriesPath.empty()) {
                const std::string path =
                    inv.timeseriesPath + suffix;
                err = writeTextFile(
                    path,
                    serve::ServiceMetricsSink::renderTimeseriesCsv(
                        cfg, report.runs));
                if (!err.empty())
                    return err;
                written.push_back(path);
            }
            return std::string();
        });
}

/** NN mode: run the variant x nn inference grid. */
int
runNn(const sim::SimConfig &cfg, const CliInvocation &inv)
{
    if (cfg.nnCells.empty()) {
        std::fprintf(stderr,
                     "--nn: scenario declares no [nn] sections\n");
        return 1;
    }

    const nn::NnRunner runner(cfg);
    const auto progress = [&](const nn::NnRunRecord &r, u64 done,
                              u64 total) {
        std::fprintf(stderr,
                     "[%llu/%llu] %s / %s: %.1f us/inf, %.2f "
                     "uJ/inf, acc %.2f, %s\n",
                     static_cast<unsigned long long>(done),
                     static_cast<unsigned long long>(total),
                     r.variant.c_str(), r.cell.c_str(),
                     r.out.nsPerInference() * 1e-3,
                     r.out.pjPerInference() * 1e-6, r.out.accuracy,
                     r.out.verified ? "ok" : "VERIFY FAILED");
    };
    const auto report = runner.run(
        inv.opt, inv.quiet ? nn::NnRunner::Progress() : progress);
    if (emptyShard(report.runs.size(), inv))
        return 0;

    AsciiTable table({"variant", "cell", "bits", "images", "us/inf",
                      "uJ/inf", "acc", "vs CPU", "ok"});
    for (const auto &r : report.runs) {
        const double nsInf = r.out.nsPerInference();
        const auto hosts = nn::hostQnnCosts(r.bits, r.out.macs);
        const double cpuNs = hosts.empty() ? 0.0 : hosts[0].timeNs;
        table.addRow({r.variant, r.cell, std::to_string(r.bits),
                      std::to_string(r.out.images),
                      fmtSig(nsInf * 1e-3),
                      fmtSig(r.out.pjPerInference() * 1e-6),
                      fmtSig(r.out.accuracy, 3),
                      nsInf > 0.0 ? fmtX(cpuNs / nsInf) : "-",
                      r.out.verified ? "yes" : "NO"});
    }
    std::printf("\n%s\n", table.render().c_str());
    return finishCampaign(
        inv, report, report.allVerified(),
        [&](const std::string &suffix,
            std::vector<std::string> &written) {
            return nn::NnMetricsSink::write(cfg, report, written,
                                            suffix);
        });
}

} // namespace

int
main(int argc, char **argv)
{
#ifdef __GLIBC__
    // Cells allocate multi-MB host buffers on worker threads. glibc's
    // dynamic mmap threshold would keep each freed buffer in that
    // worker's arena, so peak RSS would depend on which worker ran
    // which cell; a fixed threshold unmaps big buffers on free.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
    const std::vector<campaign::Mode> modes = {
        {"batch",
         "",
         "the variant x workload x repeat simulation grid",
         {"reads [variant]/[workload] sections (sweepable)"},
         [](const sim::SimConfig &cfg) {
             char buf[96];
             std::snprintf(buf, sizeof(buf),
                           "%llu  (%zu variants x %zu workloads)",
                           static_cast<unsigned long long>(
                               cfg.totalRuns()),
                           cfg.devices.size(), cfg.workloads.size());
             return std::string(buf);
         },
         runBatch},
        {"service",
         "--service",
         "the request-level serving simulator (tail latency, "
         "batching policies)",
         {"reads [service] sections; [workload] entries form the",
          "request mix (weight/tenant/slo_ms keys); slo_ms,",
          "slo_target, tail_quantile and timeseries_ms drive the",
          "SLO tracking and --tail-report/--timeseries outputs"},
         [](const sim::SimConfig &cfg) {
             char buf[96];
             std::snprintf(buf, sizeof(buf),
                           "%llu  (%zu variants x %zu services)",
                           static_cast<unsigned long long>(
                               cfg.totalServiceRuns()),
                           cfg.devices.size(), cfg.services.size());
             return std::string(buf);
         },
         runService},
        {"nn",
         "--nn",
         "the quantized LeNet-5 inference grid (Table 7 workload)",
         {"reads [nn] sections: bits (1|4), images, seed (all",
          "sweepable)"},
         [](const sim::SimConfig &cfg) {
             char buf[96];
             std::snprintf(buf, sizeof(buf),
                           "%llu  (%zu variants x %zu nn cells)",
                           static_cast<unsigned long long>(
                               cfg.totalNnRuns()),
                           cfg.devices.size(), cfg.nnCells.size());
             return std::string(buf);
         },
         runNn},
    };
    return campaign::cliMain(argc, argv, modes);
}
