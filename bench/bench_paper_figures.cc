/**
 * @file
 * Figures 7, 8, 9, 10, 13 and 14 from one set of device runs: each
 * distinct (workload, design, memory, tFAW) cell runs once and every
 * figure reads the shared results. After the tables, each of the
 * paper's ordering and shape claims gets a PASS/FAIL line on stderr
 * (stdout holds only the figures). The exit status is 1 if a claim
 * fails or a cell fails functional verification.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>

#include "bench_common.hh"

#include "area/model.hh"
#include "baselines/systems.hh"

using namespace pluto;
using namespace pluto::bench;

namespace
{

using core::Design;
using dram::MemoryKind;
using workloads::BaselineRates;
using workloads::WorkloadPtr;
using workloads::WorkloadResult;

const Design kDesigns[] = {Design::Gsa, Design::Bsa, Design::Gmc};
const MemoryKind kMemories[] = {MemoryKind::Ddr4, MemoryKind::Hmc3ds};

/** One evaluated pLUTo configuration. */
struct PlutoConfig
{
    Design design;
    MemoryKind memory;

    std::string
    label() const
    {
        return std::string(core::designName(design)) +
               (memory == MemoryKind::Hmc3ds ? "-3DS" : "");
    }
};

/** The six configurations of Figures 7-10 (paper order). */
std::vector<PlutoConfig>
allConfigs()
{
    std::vector<PlutoConfig> out;
    for (const auto m : kMemories)
        for (const auto d : kDesigns)
            out.push_back({d, m});
    return out;
}

// Keyed by workload name: Figure 9's workload set builds its own CRC
// and ImgBin objects, which share their cells with Figure 7's.
std::map<std::tuple<std::string, Design, MemoryKind, double>,
         WorkloadResult>
    results;
std::string verdicts;
bool anyFailed = false;

/** Record one claim's verdict; all are printed after the figures. */
void
claim(bool holds, const std::string &what)
{
    verdicts += (holds ? "PASS: " : "FAIL: ") + what + "\n";
    anyFailed = anyFailed || !holds;
}

/** GMC > BSA > GSA in a figure's GMEAN row, on each memory. */
void
designOrder(const std::string &fig,
            const std::map<std::string, double> &gmean)
{
    for (const auto m : kMemories) {
        const auto at = [&](Design d) {
            return gmean.at(PlutoConfig{d, m}.label());
        };
        claim(at(Design::Gmc) > at(Design::Bsa) &&
                  at(Design::Bsa) > at(Design::Gsa),
              fig + " GMEAN: GMC > BSA > GSA on " +
                  dram::memoryKindName(m));
    }
}

/** `w` on `cfg` at tFAW scale `faw`; each cell runs only once. */
const WorkloadResult &
cell(const workloads::Workload &w, const PlutoConfig &cfg,
     double faw = 0.0)
{
    auto [it, fresh] =
        results.try_emplace({w.name(), cfg.design, cfg.memory, faw});
    if (!fresh)
        return it->second;
    runtime::DeviceConfig dc;
    dc.design = cfg.design;
    dc.memory = cfg.memory;
    dc.fawScale = faw;
    runtime::PlutoDevice dev(dc);
    it->second = w.runDefault(dev);
    if (!it->second.verified)
        claim(false, w.name() + " passes functional verification on " +
                         cfg.label() + " at tFAW " + fmtPct(faw));
    return it->second;
}

/** A host column of a ratio figure: header and per-workload ratio. */
struct HostColumn
{
    std::string label;
    std::function<double(const BaselineRates &)> ratio;
};

/** A pLUTo cell's ratio in a ratio figure. */
using PlutoRatio = std::function<double(
    const BaselineRates &, const WorkloadResult &, const PlutoConfig &)>;

/**
 * Print one ratio figure (Figures 7-10): per workload the host
 * columns, then one column per configuration; a GMEAN row last.
 * @return each column's GMEAN, keyed by its header.
 */
std::map<std::string, double>
ratioFigure(const std::string &title, const std::vector<WorkloadPtr> &ws,
            const std::vector<HostColumn> &hosts,
            const PlutoRatio &plutoRatio, const char *note)
{
    section(title);
    std::vector<std::string> header = {"Workload"};
    for (const auto &h : hosts)
        header.push_back(h.label);
    for (const auto &c : allConfigs())
        header.push_back(c.label());
    AsciiTable table(header);
    std::vector<std::vector<double>> columns(header.size() - 1);

    for (const auto &w : ws) {
        const auto rates = w->rates();
        std::vector<double> ratios;
        for (const auto &h : hosts)
            ratios.push_back(h.ratio(rates));
        for (const auto &c : allConfigs())
            ratios.push_back(plutoRatio(rates, cell(*w, c), c));
        std::vector<std::string> row = {w->name()};
        for (std::size_t i = 0; i < ratios.size(); ++i) {
            columns[i].push_back(ratios[i]);
            row.push_back(fmtX(ratios[i]));
        }
        table.addRow(row);
    }

    std::map<std::string, double> gmean;
    std::vector<std::string> row = {"GMEAN"};
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const double g = gmean[header[i + 1]] = geomean(columns[i]);
        row.push_back(fmtX(g));
    }
    table.addRow(row);
    std::printf("%s%s", table.render().c_str(), note);
    return gmean;
}

/**
 * Figure 13: performance of pLUTo-BSA DDR4 (16-subarray parallelism)
 * with tFAW at 50% and 100% (nominal 13.328 ns) of the window,
 * relative to 0% (no constraint, the paper's default).
 */
void
figure13(const std::vector<WorkloadPtr> &ws)
{
    section("Figure 13: relative performance under tFAW scaling "
            "(100% = unconstrained performance)");

    const PlutoConfig cfg{Design::Bsa, MemoryKind::Ddr4};
    AsciiTable t({"Workload", "tFAW=0% (none)", "tFAW=50%",
                  "tFAW=100% (nominal)"});
    std::vector<double> rel50, rel100;
    const auto addRow = [&](const std::string &name, double r50,
                            double r100) {
        t.addRow({name, "100.0%", fmtPct(r50), fmtPct(r100)});
        claim(1.0 > r50 && r50 > r100,
              "Fig. 13 " + name + ": tFAW 0% > 50% > 100%");
    };

    for (const auto &w : ws) {
        const double t0 = cell(*w, cfg, 0.0).timeNs;
        rel50.push_back(t0 / cell(*w, cfg, 0.5).timeNs);
        rel100.push_back(t0 / cell(*w, cfg, 1.0).timeNs);
        addRow(w->name(), rel50.back(), rel100.back());
    }
    addRow("GMEAN", geomean(rel50), geomean(rel100));
    std::printf("%s", t.render().c_str());
    std::printf("\nPaper reference: ~90%% at tFAW=50%% and ~80%% at "
                "nominal. Our strict sliding-window enforcement at "
                "16-subarray parallelism yields a larger penalty for "
                "pure-LUT workloads; the monotonic shape holds "
                "(see EXPERIMENTS.md).\n");
}

/**
 * Figure 14: GMEAN speedup over the CPU for varying degrees of
 * subarray-level parallelism, for all three designs on DDR4
 * (1..2048 subarrays) and 3DS (512..8192).
 *
 * Each workload runs functionally once at the geometry's default
 * parallelism; the in-DRAM portion of its time then scales inversely
 * with the subarray count (the paper's observation that scaling is
 * approximately proportional for sufficiently large inputs), while
 * the host-serial portion (e.g. the CRC combine) does not scale.
 */
void
figure14(const std::vector<WorkloadPtr> &ws)
{
    section("Figure 14: GMEAN speedup over CPU vs subarray-level "
            "parallelism");

    const std::vector<std::pair<MemoryKind, std::vector<u32>>> sweeps = {
        {MemoryKind::Ddr4, {1, 16, 256, 2048}},
        {MemoryKind::Hmc3ds, {512, 8192}},
    };

    AsciiTable t({"Memory", "Subarrays", "pLUTo-GSA", "pLUTo-BSA",
                  "pLUTo-GMC"});
    for (const auto &[kind, salps] : sweeps) {
        const u32 def = dram::Geometry::forKind(kind).defaultSalp;
        std::map<Design, std::vector<double>> curves;
        for (const u32 salp : salps) {
            std::vector<std::string> row = {dram::memoryKindName(kind),
                                            std::to_string(salp)};
            for (const auto d : kDesigns) {
                std::vector<double> speedups;
                for (const auto &w : ws) {
                    const auto &res = cell(*w, {d, kind});
                    const double dram_ns = res.timeNs - res.hostNs;
                    const double scaled =
                        res.hostNs +
                        dram_ns * static_cast<double>(def) / salp;
                    speedups.push_back(
                        w->rates().cpu * res.elements / scaled);
                }
                curves[d].push_back(geomean(speedups));
                row.push_back(fmtX(curves[d].back()));
            }
            t.addRow(row);
        }
        for (const auto d : kDesigns)
            claim(std::adjacent_find(curves[d].begin(), curves[d].end(),
                                     std::greater_equal<>()) ==
                      curves[d].end(),
                  std::string("Fig. 14 GMEAN: ") + core::designName(d) +
                      " on " + dram::memoryKindName(kind) +
                      " rises with subarray count");
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nExpected shape: near-linear scaling with subarray "
                "count while inputs are large enough; serial host "
                "portions (CRC combine) flatten the curve at high "
                "parallelism. Energy is unaffected by the degree of "
                "parallelism (Section 8.8).\n");
}

} // namespace

int
main()
{
    const auto fig7 = workloads::figure7Workloads();
    const area::AreaModel areas;
    const auto cpu = baselines::cpuSpec();
    const auto gpu = baselines::gpuSpec();

    const auto speedup = ratioFigure(
        "Figure 7: speedup over the baseline CPU (higher is better)",
        fig7,
        {{"GPU", [](const BaselineRates &r) { return r.cpu / r.gpu; }},
         {"PnM", [](const BaselineRates &r) { return r.cpu / r.pnm; }}},
        [](const BaselineRates &r, const WorkloadResult &res,
           const PlutoConfig &) { return r.cpu / res.nsPerElem(); },
        "\nPaper reference (GMEAN over CPU): GSA 357x, BSA 713x, "
        "GMC 1413x (DDR4); 3DS ~1.38x higher. Our CPU model is more "
        "charitable to the CPU, compressing absolute ratios; "
        "orderings are preserved (see EXPERIMENTS.md).\n");

    // Figure 8: pLUTo is normalized by its added-silicon area
    // (Table 5 overheads for DDR4; per-vault-amortized overhead for
    // 3DS), hosts by their die areas; all relative to the CPU's.
    const auto cpuPerfArea = [cpu](const BaselineRates &r) {
        return 1.0 / (r.cpu * cpu.dieArea);
    };
    const auto perfArea = ratioFigure(
        "Figure 8: speedup per unit area over CPU (higher is better)",
        fig7,
        {{"GPU",
          [&](const BaselineRates &r) {
              return (1.0 / (r.gpu * gpu.dieArea)) / cpuPerfArea(r);
          }}},
        [&](const BaselineRates &r, const WorkloadResult &res,
            const PlutoConfig &c) {
            const double a = areas.plutoOverheadArea(c.memory, c.design);
            return (1.0 / (res.nsPerElem() * a)) / cpuPerfArea(r);
        },
        "\nPaper reference (GMEAN, DDR4): GSA 426x, BSA 801x, GMC "
        "1504x the CPU's perf/area; 3DS ~29x higher than DDR4. All "
        "pLUTo designs beat CPU and GPU by wide margins.\n");

    const auto fpga = ratioFigure(
        "Figure 9: speedup over the FPGA baseline (higher is better)",
        workloads::figure9Workloads(), {},
        [](const BaselineRates &r, const WorkloadResult &res,
           const PlutoConfig &) { return r.fpga / res.nsPerElem(); },
        "\nPaper reference (GMEAN over FPGA, DDR4): GSA 160x, BSA "
        "274x, GMC 459x. Largest gains on small LUTs (BC4, ImgBin); "
        "smallest on wide operands (MUL16).\n");

    // Figure 10: per-element energies, host = rate x power, reported
    // as CPU energy / system energy so higher is better.
    const auto cpuPj = [cpu](const BaselineRates &r) {
        return units::energyFromPower(cpu.power, r.cpu);
    };
    const auto energy = ratioFigure(
        "Figure 10: CPU-normalized energy savings "
        "(CPU energy / system energy; higher is better)",
        fig7,
        {{"GPU",
          [&](const BaselineRates &r) {
              return cpuPj(r) / units::energyFromPower(gpu.power, r.gpu);
          }}},
        [&](const BaselineRates &r, const WorkloadResult &res,
            const PlutoConfig &) { return cpuPj(r) / res.pjPerElem(); },
        "\nPaper reference (GMEAN): GSA 1361x, BSA 1855x, GMC 3071x "
        "less energy than CPU on DDR4; 3DS saves ~8x less than DDR4 "
        "(HMC background power).\n");

    designOrder("Fig. 7", speedup);
    designOrder("Fig. 8", perfArea);
    designOrder("Fig. 9", fpga);
    designOrder("Fig. 10", energy);
    claim(speedup.at("pLUTo-BSA") > speedup.at("GPU"),
          "Fig. 7 GMEAN: pLUTo-BSA above the GPU");
    for (const auto &c : allConfigs())
        claim(perfArea.at(c.label()) > perfArea.at("GPU"),
              "Fig. 8 GMEAN: " + c.label() + " above the GPU");
    for (const auto d : kDesigns) {
        const auto ddr4 = PlutoConfig{d, MemoryKind::Ddr4}.label();
        const auto hmc = PlutoConfig{d, MemoryKind::Hmc3ds}.label();
        claim(speedup.at(hmc) > speedup.at(ddr4),
              "Fig. 7 GMEAN: " + hmc + " above " + ddr4);
        claim(energy.at(ddr4) > energy.at(hmc),
              "Fig. 10 GMEAN: " + ddr4 + " saves more than " + hmc);
    }

    figure13(fig7);
    figure14(fig7);

    std::fprintf(stderr, "%s", verdicts.c_str());
    return anyFailed ? 1 : 0;
}
