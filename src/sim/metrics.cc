/**
 * @file
 * CSV/JSON rendering of scenario results (see metrics.hh).
 */

#include "sim/metrics.hh"

#include <map>
#include <tuple>

#include "common/emit.hh"
#include "common/stats.hh"

namespace pluto::sim
{

namespace
{

/** Speedup of a simulated rate vs a host baseline rate. */
double
speedup(double baseline_ns_per_elem, double ns_per_elem)
{
    return ns_per_elem > 0.0 ? baseline_ns_per_elem / ns_per_elem
                             : 0.0;
}

} // namespace

std::vector<std::string>
MetricsSink::csvColumns()
{
    return {"scenario",     "variant",      "workload",
            "repeat",       "seed",         "elements",
            "time_ns",      "ns_per_elem",  "energy_pj",
            "pj_per_elem",  "host_ns",      "verified",
            "speedup_cpu",  "speedup_gpu",  "speedup_fpga",
            "speedup_pnm",  "wall_ms"};
}

std::string
MetricsSink::renderCsv(const SimConfig &cfg,
                       const ScenarioReport &report)
{
    CsvWriter csv(csvColumns());
    for (const auto &r : report.runs) {
        const double npe = r.out.nsPerElem();
        csv.addRow({
            cfg.name,
            r.variant,
            r.workload,
            fmtU64(r.repeat),
            fmtU64(r.seed),
            fmtU64(r.out.elements),
            fmtNum("%.6f", r.out.timeNs),
            fmtNum("%.9f", npe),
            fmtNum("%.6f", r.out.energyPj),
            fmtNum("%.9f", r.out.pjPerElem()),
            fmtNum("%.6f", r.out.hostNs),
            r.out.verified ? "yes" : "no",
            fmtNum("%.4f", speedup(r.rates.cpu, npe)),
            fmtNum("%.4f", speedup(r.rates.gpu, npe)),
            fmtNum("%.4f", speedup(r.rates.fpga, npe)),
            fmtNum("%.4f", speedup(r.rates.pnm, npe)),
            fmtNum("%.3f", r.out.wallMs),
        });
    }
    return csv.render();
}

std::vector<CellSummary>
MetricsSink::aggregate(const ScenarioReport &report)
{
    using CellKey = std::tuple<std::string, std::string, u64, u64>;
    std::vector<CellKey> order;
    std::map<CellKey, CellSummary> cells;
    for (const auto &r : report.runs) {
        const auto key = CellKey(r.variant, r.workload,
                                 r.out.elements, r.seed);
        auto [it, inserted] = cells.try_emplace(key);
        CellSummary &c = it->second;
        if (inserted) {
            order.push_back(key);
            c.variant = r.variant;
            c.workload = r.workload;
            c.elements = r.out.elements;
            c.seed = r.seed;
            c.verified = true;
            c.rates = r.rates;
        }
        ++c.runs;
        c.verified = c.verified && r.out.verified;
        c.meanTimeNs += r.out.timeNs;
        c.meanEnergyPj += r.out.energyPj;
        c.wallMs += r.out.wallMs;
    }

    std::vector<CellSummary> out;
    out.reserve(order.size());
    for (const auto &key : order) {
        CellSummary c = cells.at(key);
        const double n = static_cast<double>(c.runs);
        c.meanTimeNs /= n;
        c.meanEnergyPj /= n;
        if (c.elements) {
            c.nsPerElem =
                c.meanTimeNs / static_cast<double>(c.elements);
            c.pjPerElem =
                c.meanEnergyPj / static_cast<double>(c.elements);
        }
        out.push_back(std::move(c));
    }
    return out;
}

std::string
MetricsSink::renderJson(const SimConfig &cfg,
                        const ScenarioReport &report)
{
    JsonValue root = JsonValue::object();
    root.set("scenario", cfg.name);
    root.set("total_runs",
             static_cast<unsigned long long>(report.runs.size()));
    root.set("all_verified", report.allVerified());
    root.set("wall_ms", report.wallMs);

    JsonValue &results = root.set("results", JsonValue::array());
    std::map<std::string, std::vector<double>> cpuSpeedups;
    for (const CellSummary &c : aggregate(report)) {
        JsonValue &row = results.push(JsonValue::object());
        row.set("variant", c.variant);
        row.set("workload", c.workload);
        row.set("runs", static_cast<unsigned long long>(c.runs));
        row.set("elements",
                static_cast<unsigned long long>(c.elements));
        row.set("seed", static_cast<unsigned long long>(c.seed));
        row.set("verified", c.verified);
        row.set("mean_time_ns", c.meanTimeNs);
        row.set("ns_per_elem", c.nsPerElem);
        row.set("mean_energy_pj", c.meanEnergyPj);
        row.set("pj_per_elem", c.pjPerElem);
        row.set("wall_ms", c.wallMs);
        JsonValue &sp = row.set("speedup", JsonValue::object());
        sp.set("cpu", speedup(c.rates.cpu, c.nsPerElem));
        sp.set("gpu", speedup(c.rates.gpu, c.nsPerElem));
        sp.set("fpga", speedup(c.rates.fpga, c.nsPerElem));
        sp.set("pnm", speedup(c.rates.pnm, c.nsPerElem));
        cpuSpeedups[c.variant].push_back(
            speedup(c.rates.cpu, c.nsPerElem));
    }

    JsonValue &variants = root.set("variants", JsonValue::array());
    for (const auto &d : cfg.devices) {
        JsonValue &row = variants.push(JsonValue::object());
        row.set("name", d.name);
        row.set("design", core::designName(d.config.design));
        row.set("memory", dram::memoryKindName(d.config.memory));
        row.set("salp",
                static_cast<unsigned long long>(d.config.salp));
        row.set("faw", d.config.fawScale);
        const auto it = cpuSpeedups.find(d.name);
        row.set("geomean_speedup_cpu",
                it != cpuSpeedups.end() ? geomean(it->second) : 0.0);
    }
    return root.dump();
}

std::string
MetricsSink::write(const SimConfig &cfg, const ScenarioReport &report,
                   std::vector<std::string> &written,
                   const std::string &suffix)
{
    const std::string base = cfg.outDir + "/" + cfg.name + suffix;
    const std::string csvPath = base + "_runs.csv";
    std::string err = writeTextFile(csvPath, renderCsv(cfg, report));
    if (!err.empty())
        return err;
    written.push_back(csvPath);
    const std::string jsonPath = base + "_summary.json";
    err = writeTextFile(jsonPath, renderJson(cfg, report));
    if (!err.empty())
        return err;
    written.push_back(jsonPath);
    return {};
}

} // namespace pluto::sim
