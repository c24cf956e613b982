/**
 * @file
 * Campaign CLI driver (see cli.hh).
 */

#include "campaign/cli.hh"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/cpuid.hh"
#include "common/emit.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "workloads/workload.hh"

namespace pluto::campaign
{

namespace
{

/** The full --help text, assembled from the mode registry. */
void
printHelp(const std::vector<Mode> &modes)
{
    std::printf(
        "usage: pluto_sim [mode] [options] SCENARIO.ini\n"
        "\n"
        "options (all modes):\n"
        "  --threads N     worker threads (default: hardware "
        "concurrency)\n"
        "  --out DIR       override the scenario's out_dir\n"
        "  --shard I/N     run only shard I of N (0-based; outputs\n"
        "                  suffixed .shardIofN; combine shards via\n"
        "                  --cache-dir and a final unsharded pass)\n"
        "  --cache-dir DIR replay/append a result cache (one JSONL\n"
        "                  file per scenario and mode; shards merge\n"
        "                  by appending to the same files)\n"
        "  --deterministic zero wall-clock fields in outputs\n"
        "  --quiet         suppress per-cell progress lines\n"
        "  --trace FILE    write a Chrome trace-event JSON (host +\n"
        "                  virtual-time tracks; open in Perfetto)\n"
        "  --metrics-out FILE  write the hierarchical counter tree\n"
        "                  as JSON after the campaign\n"
        "  --tail-report FILE  service mode: write the tail-blame\n"
        "                  JSON (per-tenant/class phase breakdown\n"
        "                  above the [service] tail_quantile)\n"
        "  --timeseries FILE  service mode: write the virtual-time\n"
        "                  series CSV (one row per timeseries_ms\n"
        "                  window per cell)\n"
        "  --log-level L   stderr threshold: warn (default) or error\n"
        "                  (alias: quiet)\n"
        "  --list          list registered workload names and exit\n"
        "  --list-workloads  print the workload registry table and "
        "exit\n"
        "  --simd-tier     print the active SIMD dispatch tier\n"
        "                  (scalar/ssse3/avx2; see PLUTO_NO_SIMD) "
        "and exit\n"
        "  --help          this text\n"
        "\n"
        "modes:\n");
    for (const auto &m : modes) {
        std::printf("  %-15s %s: %s\n",
                    m.flag.empty() ? "(default)" : m.flag.c_str(),
                    m.name.c_str(), m.summary.c_str());
        for (const auto &note : m.notes)
            std::printf("                  %s\n", note.c_str());
    }
}

/** Short usage pointer for error paths (stderr). */
void
usageError(const char *fmt, const std::string &what)
{
    std::fprintf(stderr, fmt, what.c_str());
    std::fprintf(stderr, "usage: pluto_sim [mode] [options] "
                         "SCENARIO.ini  (--help for details)\n");
}

/** The --list-workloads registry table. */
void
printWorkloadTable()
{
    AsciiTable table({"workload", "default elems (ddr4)",
                      "default elems (3ds)", "cpu ns/elem",
                      "gpu ns/elem", "fpga ns/elem"});
    for (const auto &name : workloads::workloadNames()) {
        const auto w = workloads::createWorkload(name);
        if (!w)
            continue;
        const auto rates = w->rates();
        table.addRow(
            {name,
             std::to_string(
                 w->defaultElements(dram::MemoryKind::Ddr4)),
             std::to_string(
                 w->defaultElements(dram::MemoryKind::Hmc3ds)),
             fmtSig(rates.cpu), fmtSig(rates.gpu),
             fmtSig(rates.fpga)});
    }
    std::printf("%s", table.render().c_str());
}

} // namespace

int
finishCampaign(
    const CliInvocation &inv, const Stats &stats, bool allVerified,
    const std::function<std::string(const std::string &suffix,
                                    std::vector<std::string> &written)>
        &write)
{
    std::printf("wall       %.0f ms total\n", stats.wallMs);
    if (!inv.opt.cacheDir.empty()) {
        const u64 total = stats.cacheHits + stats.cacheMisses;
        std::printf("cache_hits=%llu cache_misses=%llu "
                    "hit_rate=%.1f%%\n",
                    static_cast<unsigned long long>(stats.cacheHits),
                    static_cast<unsigned long long>(stats.cacheMisses),
                    total ? 100.0 * stats.cacheHits / total : 0.0);
    }

    std::string suffix;
    if (inv.sharded)
        suffix = ".shard" + std::to_string(inv.opt.shardIndex) +
                 "of" + std::to_string(inv.opt.shardCount);
    std::vector<std::string> written;
    const auto w0 = std::chrono::steady_clock::now();
    const std::string werr = write(suffix, written);
    if (auto *sh = obs::shard())
        sh->add("campaign/phase/write_ms",
                inv.opt.deterministic ? 0.0 : msSince(w0));
    if (!werr.empty()) {
        std::fprintf(stderr, "output error: %s\n", werr.c_str());
        return 1;
    }
    for (const auto &p : written)
        std::printf("wrote      %s\n", p.c_str());

    return allVerified ? 0 : 2;
}

int
cliMain(int argc, char **argv, const std::vector<Mode> &modes)
{
    CliInvocation inv;
    std::string outDir;
    const Mode *mode = nullptr; // default resolved after parsing

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usageError("pluto_sim: %s needs a value\n", arg);
                std::exit(1);
            }
            return argv[++i];
        };
        const auto modeFor = [&](const std::string &flag) {
            for (const auto &m : modes)
                if (!m.flag.empty() && m.flag == flag)
                    return &m;
            return static_cast<const Mode *>(nullptr);
        };
        if (arg == "--list") {
            for (const auto &name : workloads::workloadNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--list-workloads") {
            printWorkloadTable();
            return 0;
        } else if (arg == "--threads") {
            // The whole value must be an unsigned decimal, like the
            // --shard fields: "abc", "2x", "-1" and "" are errors.
            const std::string spec = next();
            const char *end = spec.data() + spec.size();
            const auto [stop, ec] =
                std::from_chars(spec.data(), end, inv.opt.threads);
            if (ec != std::errc() || stop != end) {
                usageError("pluto_sim: --threads wants an unsigned "
                           "integer (0 = all cores), got '%s'\n",
                           spec);
                return 1;
            }
        } else if (arg == "--out") {
            outDir = next();
        } else if (arg == "--shard") {
            const std::string spec = next();
            unsigned idx = 0, cnt = 0;
            char trail = 0;
            if (std::sscanf(spec.c_str(), "%u/%u%c", &idx, &cnt,
                            &trail) != 2) {
                usageError("pluto_sim: --shard wants I/N (e.g. 0/3), "
                           "got '%s'\n",
                           spec);
                return 1;
            }
            inv.opt.shardIndex = idx;
            inv.opt.shardCount = cnt;
            inv.sharded = true;
        } else if (arg == "--cache-dir") {
            inv.opt.cacheDir = next();
        } else if (arg == "--simd-tier") {
            std::printf("%s\n", simd::tierName(simd::tier()));
            return 0;
        } else if (arg == "--deterministic") {
            inv.opt.deterministic = true;
        } else if (arg == "--quiet") {
            inv.quiet = true;
        } else if (arg == "--trace") {
            inv.tracePath = next();
        } else if (arg == "--metrics-out") {
            inv.metricsPath = next();
        } else if (arg == "--tail-report") {
            inv.tailReportPath = next();
        } else if (arg == "--timeseries") {
            inv.timeseriesPath = next();
        } else if (arg == "--log-level") {
            const std::string level = next();
            LogLevel threshold;
            if (!parseLogLevel(level, threshold)) {
                usageError("pluto_sim: --log-level wants warn or "
                           "error, got '%s'\n",
                           level);
                return 1;
            }
            setLogThreshold(threshold);
        } else if (arg == "--help") {
            printHelp(modes);
            return 0;
        } else if (const Mode *m = modeFor(arg)) {
            if (mode && mode != m) {
                usageError("pluto_sim: mode flag '%s' conflicts with "
                           "an earlier mode flag\n",
                           arg);
                return 1;
            }
            mode = m;
        } else if (!arg.empty() && arg.front() == '-') {
            usageError("pluto_sim: unknown flag '%s'\n", arg);
            return 1;
        } else if (inv.scenarioPath.empty()) {
            inv.scenarioPath = arg;
        } else {
            usageError("pluto_sim: unexpected extra argument '%s'\n",
                       arg);
            return 1;
        }
    }
    if (inv.scenarioPath.empty()) {
        usageError("pluto_sim: %s\n", "missing scenario file");
        return 1;
    }
    const std::string opterr = inv.opt.validate();
    if (!opterr.empty()) {
        usageError("pluto_sim: --shard: %s\n", opterr);
        return 1;
    }
    if (!mode) {
        for (const auto &m : modes)
            if (m.flag.empty())
                mode = &m;
    }
    if (!mode) {
        std::fprintf(stderr, "pluto_sim: no default mode registered\n");
        return 1;
    }

    std::string err;
    auto cfg = sim::SimConfig::load(inv.scenarioPath, err);
    if (!cfg) {
        std::fprintf(stderr, "%s: %s\n", inv.scenarioPath.c_str(),
                     err.c_str());
        return 1;
    }
    if (!outDir.empty())
        cfg->outDir = outDir;

    std::printf("scenario   %s (%s)\n", cfg->name.c_str(),
                inv.scenarioPath.c_str());
    std::printf("runs       %s\n", mode->banner(*cfg).c_str());
    if (inv.sharded)
        std::printf("shard      %u/%u\n", inv.opt.shardIndex,
                    inv.opt.shardCount);

    // Telemetry is side-band: counters and traces never feed back
    // into simulated results, so enabling either leaves the mode's
    // --deterministic outputs byte-identical.
    auto &reg = obs::Registry::get();
    const bool metricsOn =
        !inv.metricsPath.empty() || !inv.tracePath.empty();
    if (metricsOn) {
        reg.reset();
        reg.enable(true);
    }
    std::unique_ptr<obs::Tracer> tracer;
    if (!inv.tracePath.empty()) {
        tracer = std::make_unique<obs::Tracer>();
        obs::Tracer::install(tracer.get());
        tracer->setThreadName("main");
    }

    int rc = mode->run(*cfg, inv);

    if (tracer) {
        obs::Tracer::install(nullptr);
        if (tracer->droppedCount() > 0)
            warn("trace: %llu events dropped by the per-thread "
                 "buffer cap",
                 static_cast<unsigned long long>(
                     tracer->droppedCount()));
        const std::string terr = tracer->writeJson(inv.tracePath);
        if (!terr.empty()) {
            std::fprintf(stderr, "trace error: %s\n", terr.c_str());
            if (rc == 0)
                rc = 1;
        } else {
            std::printf("wrote      %s (%llu events)\n",
                        inv.tracePath.c_str(),
                        static_cast<unsigned long long>(
                            tracer->eventCount()));
        }
    }
    if (!inv.metricsPath.empty()) {
        const std::string json = reg.renderJson(
            {{"scenario", obs::argStr("", cfg->name).json},
             {"scenario_file",
              obs::argStr("", inv.scenarioPath).json},
             {"mode", obs::argStr("", mode->name).json},
             {"deterministic",
              inv.opt.deterministic ? "true" : "false"}});
        const std::string merr =
            writeTextFile(inv.metricsPath, json);
        if (!merr.empty()) {
            std::fprintf(stderr, "metrics error: %s\n", merr.c_str());
            if (rc == 0)
                rc = 1;
        } else {
            std::printf("wrote      %s\n", inv.metricsPath.c_str());
        }
    }
    if (metricsOn) {
        reg.enable(false);
        reg.reset();
    }
    return rc;
}

} // namespace pluto::campaign
