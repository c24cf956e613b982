/**
 * @file
 * NN campaign execution on the campaign core (see campaign.hh).
 */

#include "nn/campaign.hh"

#include <sstream>

#include "common/logging.hh"
#include "nn/pluto_qnn.hh"
#include "obs/registry.hh"

namespace pluto::nn
{

namespace
{

/** Bump when the inference cost model changes cached semantics. */
constexpr u32 kNnSchema = 1;

/** Static description of one cell, expanded from the config. */
struct CellTask
{
    u32 device = 0;
    u32 spec = 0;
};

/**
 * Simulated cost of one batch of `images` inferences on `dev`: one
 * LUT load per batch (so larger batches amortize it), then query
 * waves sized for the whole batch's MACs, then the per-image host
 * reduction. Mirrors plutoQnnCost's per-image mapping (see
 * pluto_qnn.hh) with the load cost kept in the measurement.
 */
void
chargeBatch(runtime::PlutoDevice &dev, const LeNet5 &net, u32 images)
{
    const auto &geom = dev.geometry();
    const u32 salp = dev.salp();
    const u64 macs = net.totalMacs() * images;
    const double hostNs = 2000.0 * images;

    dev.resetStats();
    if (net.bits() == 1) {
        // XNOR phase: 2-bit slots, one lookup per binary MAC;
        // popcount phase: BC-8 over packed XNOR outputs.
        const auto xnor_lut = dev.loadLut("xnor1");
        const auto bc_lut = dev.loadLut("bc8");
        const u64 xnor_slots = geom.rowBits() / 2 * salp;
        const u64 bc_slots = geom.rowBits() / 8 * salp;
        dev.lutOpTimedOnly(
            xnor_lut, (macs + xnor_slots - 1) / xnor_slots, salp);
        dev.lutOpTimedOnly(
            bc_lut, (macs / 8 + bc_slots - 1) / bc_slots, salp);
    } else {
        // 4-bit MACs: one mul4 query per MAC plus one chunked add4
        // query for the accumulation tree, 8-bit slots.
        const auto mul_lut = dev.loadLut("mul4");
        const auto add_lut = dev.loadLut("add4");
        const u64 slots = geom.rowBits() / 8 * salp;
        const u64 waves = (macs + slots - 1) / slots;
        dev.lutOpTimedOnly(mul_lut, waves, salp);
        dev.lutOpTimedOnly(add_lut, waves, salp);
    }
    dev.hostWork(hostNs, units::energyFromPower(2.0, hostNs));
}

} // namespace

std::string
NnCache::key(const runtime::DeviceConfig &cfg,
             const sim::NnSpec &spec)
{
    std::ostringstream d;
    d << 'v' << kNnSchema << '|' << deviceDescriptor(cfg) << '|'
      << sim::keyedFields(sim::kNnFields, spec, '|');
    return keyFor(d.str());
}

NnRunner::NnRunner(sim::SimConfig cfg) : cfg_(std::move(cfg)) {}

NnReport
NnRunner::run(const campaign::RunOptions &opt,
              const Progress &progress) const
{
    if (cfg_.nnCells.empty())
        fatal("scenario '%s' declares no [nn] sections",
              cfg_.name.c_str());

    std::vector<CellTask> tasks;
    for (u32 d = 0; d < cfg_.devices.size(); ++d)
        for (u32 s = 0; s < cfg_.nnCells.size(); ++s)
            tasks.push_back({d, s});

    campaign::CellFns<CellTask, NnRunRecord> cell;
    cell.label = [&](const CellTask &t, NnRunRecord &rec) {
        const sim::NnSpec &spec = cfg_.nnCells[t.spec];
        rec.variant = cfg_.devices[t.device].name;
        rec.cell = spec.name;
        rec.bits = spec.bits;
        rec.seed = spec.seed;
    };
    cell.key = [&](const CellTask &t) {
        return NnCache::key(cfg_.devices[t.device].config,
                            cfg_.nnCells[t.spec]);
    };
    cell.compute = [&](const CellTask &t, NnRunRecord &rec,
                       ScratchArena &arena) {
        const sim::NnSpec &spec = cfg_.nnCells[t.spec];

        // Functional path: classify the batch on the host and check
        // the whole prediction vector reproduces with a freshly
        // built net — inference must be a pure function of
        // (bits, seed).
        const LeNet5 net(spec.bits, spec.seed);
        MnistSynth synth(spec.seed);
        const auto digits = synth.batch(spec.images);
        u32 correct = 0;
        std::vector<u32> preds;
        preds.reserve(digits.size());
        for (const auto &img : digits) {
            preds.push_back(net.classify(img));
            correct += preds.back() == img.label;
        }
        const LeNet5 replay(spec.bits, spec.seed);
        MnistSynth resynth(spec.seed);
        bool verified = true;
        for (u32 k = 0; k < spec.images; ++k)
            verified = verified &&
                       replay.classify(resynth.image(
                           digits[k].label)) == preds[k];

        // Cost path: charge the batch through the device's query
        // engine.
        runtime::DeviceConfig cfg = cfg_.devices[t.device].config;
        cfg.arena = &arena;
        runtime::PlutoDevice dev(cfg);
        chargeBatch(dev, net, spec.images);
        const auto st = dev.stats();
        if (auto *sh = obs::shard()) {
            sh->inc("nn/cells");
            sh->add("nn/images", static_cast<double>(spec.images));
            sh->add("nn/macs", static_cast<double>(net.totalMacs() *
                                                   spec.images));
            if (spec.images > 0)
                sh->hist("nn/inference_ns")
                    .add(st.timeNs / spec.images);
            sh->absorb("device", st.counters);
        }

        rec.out.images = spec.images;
        rec.out.macs = net.totalMacs();
        rec.out.timeNs = st.timeNs;
        rec.out.energyPj = st.energyPj;
        rec.out.accuracy = static_cast<double>(correct) / spec.images;
        rec.out.verified = verified;
    };
    return campaign::runCampaign<NnCache>(tasks, opt, cfg_.name, cell,
                                          progress);
}

std::vector<std::string>
NnMetricsSink::csvColumns()
{
    return {"scenario",         "variant",
            "cell",             "bits",
            "images",           "seed",
            "macs",             "time_ns",
            "ns_per_inference", "energy_pj",
            "pj_per_inference", "accuracy",
            "paper_accuracy",   "speedup_cpu",
            "speedup_gpu",      "speedup_fpga",
            "verified",         "wall_ms"};
}

namespace
{

/** Host-baseline per-inference times for one record, Table 7 rows. */
struct HostRow
{
    double cpuNs = 0.0;
    double gpuNs = 0.0;
    double fpgaNs = 0.0;
};

HostRow
hostRow(u32 bits, u64 macs)
{
    HostRow row;
    const auto hosts = hostQnnCosts(bits, macs);
    if (hosts.size() >= 3) {
        row.cpuNs = hosts[0].timeNs;
        row.gpuNs = hosts[1].timeNs;
        row.fpgaNs = hosts[2].timeNs;
    }
    return row;
}

double
speedup(double hostNs, double plutoNs)
{
    return plutoNs > 0.0 ? hostNs / plutoNs : 0.0;
}

} // namespace

std::string
NnMetricsSink::renderCsv(const sim::SimConfig &cfg,
                         const NnReport &report)
{
    CsvWriter csv(csvColumns());
    for (const auto &r : report.runs) {
        const double nsInf = r.out.nsPerInference();
        const HostRow host = hostRow(r.bits, r.out.macs);
        csv.addRow({
            cfg.name,
            r.variant,
            r.cell,
            fmtU64(r.bits),
            fmtU64(r.out.images),
            fmtU64(r.seed),
            fmtU64(r.out.macs),
            fmtNum("%.6f", r.out.timeNs),
            fmtNum("%.6f", nsInf),
            fmtNum("%.6f", r.out.energyPj),
            fmtNum("%.6f", r.out.pjPerInference()),
            fmtNum("%.4f", r.out.accuracy),
            fmtNum("%.4f", paperAccuracy(r.bits)),
            fmtNum("%.4f", speedup(host.cpuNs, nsInf)),
            fmtNum("%.4f", speedup(host.gpuNs, nsInf)),
            fmtNum("%.4f", speedup(host.fpgaNs, nsInf)),
            r.out.verified ? "yes" : "no",
            fmtNum("%.3f", r.out.wallMs),
        });
    }
    return csv.render();
}

std::string
NnMetricsSink::renderJson(const sim::SimConfig &cfg,
                          const NnReport &report)
{
    JsonValue root = JsonValue::object();
    root.set("scenario", cfg.name);
    root.set("total_runs",
             static_cast<unsigned long long>(report.runs.size()));
    root.set("all_verified", report.allVerified());
    root.set("wall_ms", report.wallMs);

    JsonValue &results = root.set("results", JsonValue::array());
    for (const auto &r : report.runs) {
        const double nsInf = r.out.nsPerInference();
        const HostRow host = hostRow(r.bits, r.out.macs);
        JsonValue &row = results.push(JsonValue::object());
        row.set("variant", r.variant);
        row.set("cell", r.cell);
        row.set("bits", static_cast<unsigned long long>(r.bits));
        row.set("images",
                static_cast<unsigned long long>(r.out.images));
        row.set("seed", static_cast<unsigned long long>(r.seed));
        row.set("macs", static_cast<unsigned long long>(r.out.macs));
        row.set("verified", r.out.verified);
        row.set("time_ns", r.out.timeNs);
        row.set("ns_per_inference", nsInf);
        row.set("pj_per_inference", r.out.pjPerInference());
        row.set("accuracy", r.out.accuracy);
        row.set("paper_accuracy", paperAccuracy(r.bits));
        row.set("wall_ms", r.out.wallMs);
        JsonValue &sp = row.set("speedup", JsonValue::object());
        sp.set("cpu", speedup(host.cpuNs, nsInf));
        sp.set("gpu", speedup(host.gpuNs, nsInf));
        sp.set("fpga", speedup(host.fpgaNs, nsInf));
    }
    return root.dump();
}

std::string
NnMetricsSink::write(const sim::SimConfig &cfg,
                     const NnReport &report,
                     std::vector<std::string> &written,
                     const std::string &suffix)
{
    const std::string base = cfg.outDir + "/" + cfg.name + suffix;
    const std::string csvPath = base + "_nn_runs.csv";
    std::string err = writeTextFile(csvPath, renderCsv(cfg, report));
    if (!err.empty())
        return err;
    written.push_back(csvPath);
    const std::string jsonPath = base + "_nn_summary.json";
    err = writeTextFile(jsonPath, renderJson(cfg, report));
    if (!err.empty())
        return err;
    written.push_back(jsonPath);
    return {};
}

} // namespace pluto::nn
