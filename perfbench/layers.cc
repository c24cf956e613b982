/**
 * @file
 * perfbench_layers: per-layer probes of the pLUTo simulator.
 *
 * Each probe times calls into one layer's public API from outside the
 * library and records a span around every call. Spans stay in memory
 * and are written as Chrome trace-event JSON when the probes end;
 * every span's self time is its duration minus the time its child
 * spans cover. The library itself is not instrumented.
 *
 *   perfbench_layers --scenario W.ini --serve-scenario S.ini \
 *                    --seed N --spans OUT.json
 *
 * W is the workload's scenario (config load); S is the scenario whose
 * [service] cells and request mix drive the serve probes (the
 * workload's own scenario when it serves). The last stdout line is one
 * JSON object: {"metrics": {...}, "self_ms": {...}, "info": {...}}.
 *
 * Layers and their probes (module names are layer names):
 *  - sim:       SimConfig::load of W.
 *  - serve:     calibrateAll per variant; run() of S's last cell with
 *               that calibration; render of its record; LoadGen drain,
 *               EventQueue/LoadIndex dispatch, BatchMemo lookups and a
 *               ServiceMetrics fold over every cell's arrival stream.
 *  - runtime:   one pool slot (PlutoDevice + canonical LUT + warm wave).
 *  - pluto:     loadLut of one library LUT; one gang-sized timed-only
 *               batch after resetStats() on gmc and gsa.
 *  - workloads: Workload::run of the 11 Fig. 7 set on fresh gmc devices.
 *  - bulk:      LutGather::apply, packBulk, unpackBulk.
 */

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/bitvec_bulk.hh"
#include "common/random.hh"
#include "runtime/device.hh"
#include "serve/engine.hh"
#include "serve/loadgen.hh"
#include "serve/memo.hh"
#include "serve/metrics.hh"
#include "serve/simulator.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

using namespace pluto;

namespace
{

using Clock = std::chrono::steady_clock;

/** The Fig. 7 workload set of the paper_sweep workload. */
const char *const kFig7[] = {"CRC-8",  "CRC-32",    "Salsa20", "VMPC",
                             "ImgBin", "ColorGrade", "ADD8",   "MUL8",
                             "MUL16",  "BC8",       "Bitwise-XOR"};

/** The serving simulator's canonical LUT: what a pool slot loads. */
constexpr const char *kCanonicalLut = "colorgrade";

/** Query waves of one timed-only probe batch. */
constexpr u64 kBatchWaves = 16;

/** In-memory span recorder (Chrome "X" events, one thread). */
class Spans
{
  public:
    Spans() : t0_(Clock::now()) {}

    int begin(std::string name)
    {
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({std::move(name), sinceUs(), 0.0, parent});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    /** Close span `idx`; @return its duration, ms. */
    double end(int idx)
    {
        Rec &r = spans_[idx];
        r.durUs = sinceUs() - r.startUs;
        open_.pop_back();
        return r.durUs * 1e-3;
    }

    /** Summed self time per span name, ms. */
    std::map<std::string, double> selfMs() const
    {
        std::vector<double> childUs(spans_.size(), 0.0);
        for (const Rec &r : spans_)
            if (r.parent >= 0)
                childUs[r.parent] += r.durUs;
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] +=
                (spans_[i].durUs - childUs[i]) * 1e-3;
        return out;
    }

    bool writeChromeJson(const std::string &path) const
    {
        std::ofstream f(path);
        f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
             "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
             "\"args\":{\"name\":\"perfbench layer probes\"}}";
        char buf[128];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Rec &r = spans_[i];
            std::snprintf(buf, sizeof(buf),
                          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                          "\"parent\":%d}}",
                          r.startUs, r.durUs, i, r.parent);
            f << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\""
              << r.name << "\"," << buf;
        }
        f << "\n]}\n";
        return static_cast<bool>(f);
    }

  private:
    struct Rec
    {
        std::string name;
        double startUs;
        double durUs;
        int parent;
    };

    double sinceUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0_)
            .count();
    }

    Clock::time_point t0_;
    std::vector<Rec> spans_;
    std::vector<int> open_;
};

Spans gSpans;

/** RAII span; ms() closes it early and returns its duration. */
class Span
{
  public:
    explicit Span(std::string name) : idx_(gSpans.begin(std::move(name)))
    {
    }
    ~Span()
    {
        if (idx_ >= 0)
            gSpans.end(idx_);
    }
    double ms()
    {
        const double d = gSpans.end(idx_);
        idx_ = -1;
        return d;
    }

  private:
    int idx_;
};

/** Time one call under a span of `name`; @return ms. */
template <typename Fn>
double
timed(const std::string &name, Fn &&fn)
{
    Span s(name);
    fn();
    return s.ms();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Repeat `fn` under spans until `minReps` and `budgetMs` are both
 *  met (or `maxReps` is hit); @return the median call time, ms. */
template <typename Fn>
double
medianMs(const std::string &name, u32 minReps, u32 maxReps,
         double budgetMs, Fn &&fn)
{
    std::vector<double> t;
    double total = 0.0;
    while (t.size() < maxReps && (t.size() < minReps || total < budgetMs)) {
        t.push_back(timed(name, fn));
        total += t.back();
    }
    return median(std::move(t));
}

/** Heap bytes in use (allocator view, independent of page reuse). */
double
heapBytes()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/** Keep a value observable so probe loops are not optimized away. */
volatile u64 gSink = 0;

std::map<std::string, double> gMetrics;
std::map<std::string, std::string> gInfo;
u32 gFailures = 0;

void
fail(const std::string &what)
{
    std::fprintf(stderr, "perfbench_layers: %s\n", what.c_str());
    ++gFailures;
}

sim::SimConfig
loadOrDie(const std::string &path)
{
    std::string err;
    auto cfg = sim::SimConfig::load(path, err);
    if (!cfg) {
        std::fprintf(stderr, "perfbench_layers: %s: %s\n", path.c_str(),
                     err.c_str());
        std::exit(1);
    }
    return *cfg;
}

// ---- sim -----------------------------------------------------------

void
probeSim(const std::string &path)
{
    Span layer("sim");
    gMetrics["sim.config_load_ms"] =
        medianMs("sim.config_load", 9, 200, 200.0,
                 [&] { gSink = gSink + loadOrDie(path).totalRuns(); });
}

// ---- runtime / pluto -----------------------------------------------

/** What one serve pool slot pays: device, canonical LUT, warm wave. */
void
buildSlot(const runtime::DeviceConfig &cfg,
          std::unique_ptr<runtime::PlutoDevice> &dev)
{
    dev = std::make_unique<runtime::PlutoDevice>(cfg);
    const auto lut = dev->loadLut(kCanonicalLut);
    dev->lutOpTimedOnly(lut, 1, 1);
}

void
probeRuntime(const runtime::DeviceConfig &cfg)
{
    Span layer("runtime");
    std::unique_ptr<runtime::PlutoDevice> dev;
    gMetrics["runtime.device_build_ms"] =
        medianMs("runtime.device_build", 5, 20, 300.0, [&] {
            dev.reset();
            buildSlot(cfg, dev);
        });
    dev.reset();
    const double before = heapBytes();
    buildSlot(cfg, dev);
    gMetrics["runtime.device_build_mb"] =
        (heapBytes() - before) / (1024.0 * 1024.0);
}

void
probePluto(runtime::DeviceConfig cfg, u32 lanes)
{
    Span layer("pluto");
    {
        std::vector<double> t;
        for (int i = 0; i < 5; ++i) {
            runtime::PlutoDevice dev(cfg);
            t.push_back(timed("pluto.lut_load", [&] {
                gSink = gSink + dev.loadLut(kCanonicalLut).lutSize;
            }));
        }
        gMetrics["pluto.lut_load_ms"] = median(std::move(t));
    }
    const std::pair<const char *, core::Design> designs[] = {
        {"gmc", core::Design::Gmc}, {"gsa", core::Design::Gsa}};
    for (const auto &[label, design] : designs) {
        cfg.design = design;
        runtime::PlutoDevice dev(cfg);
        const auto lut = dev.loadLut(kCanonicalLut);
        dev.lutOpTimedOnly(lut, 1, 1);
        const u32 salp = dev.salp();
        const u32 ln = std::min(lanes, salp);
        const u32 gang = std::max(1u, salp / ln);
        gMetrics[std::string("pluto.timed_batch_us.") + label] =
            1e3 * medianMs(std::string("pluto.timed_batch.") + label, 9,
                           400, 300.0, [&] {
                               dev.resetStats();
                               dev.lutOpTimedOnly(lut, kBatchWaves,
                                                  gang * ln);
                           });
    }
}

// ---- serve ---------------------------------------------------------

struct ServeTotals
{
    double loadgenMs = 0.0;
    double engineMs = 0.0;
    double memoMs = 0.0;
    double metricsMs = 0.0;
    double finishMs = 0.0;
    double metricsBytes = 0.0;
    u64 requests = 0;
    u64 events = 0;
    u64 lookups = 0;
};

/** Mean simulated service time per request at ~90% utilization. */
TimeNs
syntheticServiceNs(const sim::ServiceSpec &spec)
{
    const double rate = spec.closedLoop ? 1e6 : spec.ratePerSec;
    return 0.9 * spec.devices * 1e9 / std::max(rate, 1.0);
}

/** Dispatch loop over an arrival stream through EventQueue and
 *  LoadIndex at the cell's pool size; @return events fired. */
u64
driveEngine(const std::vector<serve::Request> &reqs,
            const sim::ServiceSpec &spec)
{
    const u32 pool = std::max(1u, spec.devices);
    const TimeNs svcNs = syntheticServiceNs(spec);
    serve::EventQueue q;
    serve::LoadIndex idx(pool);
    std::vector<u64> load(pool, 0);
    u64 fired = 0;
    const auto fire = [&] {
        const u32 d = q.top().dev;
        q.pop();
        idx.update(d, --load[d]);
        ++fired;
    };
    for (const serve::Request &r : reqs) {
        while (!q.empty() && q.top().t <= r.arriveNs)
            fire();
        const u32 d = idx.leastLoaded();
        idx.update(d, ++load[d]);
        q.schedule(r.arriveNs + svcNs * static_cast<double>(load[d]),
                   serve::EvKind::DeviceFree, d);
    }
    while (!q.empty())
        fire();
    return fired;
}

/** Signature lookups of one cell's stream against a memo holding
 *  every (class, size, residency) signature the cell can produce. */
void
driveMemo(const std::vector<serve::Request> &reqs,
          const sim::ServiceSpec &spec, std::size_t classes,
          ServeTotals &tot)
{
    serve::BatchMemo memo;
    for (u32 c = 0; c < classes; ++c)
        for (u32 n = 1; n <= std::max(1u, spec.batch); ++n)
            for (int res = 0; res < 2; ++res)
                memo.insert(serve::BatchMemo::signature(c, n, res != 0),
                            serve::BatchBundle{});
    tot.memoMs += timed("serve.memo.find", [&] {
        i64 acc = 0;
        for (const serve::Request &r : reqs)
            acc += memo.find(serve::BatchMemo::signature(
                r.cls, 1 + static_cast<u32>(r.id % 2), true));
        gSink = gSink + static_cast<u64>(acc);
    });
    tot.lookups += reqs.size();
}

/** One ServiceMetrics fold of a cell's stream, then finish(). */
void
driveMetrics(const std::vector<serve::Request> &reqs,
             const sim::ServiceSpec &spec,
             const std::vector<serve::RequestClass> &mix,
             ServeTotals &tot)
{
    const TimeNs svcNs = syntheticServiceNs(spec);
    const double before = heapBytes();
    serve::ServiceMetrics m(serve::MetricsConfig::from(spec, mix));
    tot.metricsMs += timed("serve.metrics.fold", [&] {
        for (const serve::Request &r : reqs) {
            const TimeNs lat = svcNs * (1.0 + 0.25 * (r.id % 8));
            serve::PhaseBreakdownNs ph;
            ph.ns[static_cast<u32>(serve::Phase::QueueWait)] =
                lat - svcNs;
            ph.ns[static_cast<u32>(serve::Phase::Exec)] = svcNs;
            m.onArrival(r.arriveNs);
            m.onQueueDepth(r.arriveNs, r.id % 8);
            m.onBatch(r.arriveNs, 1, 1, svcNs);
            m.onComplete(r, r.arriveNs + lat, ph);
        }
    });
    tot.metricsBytes += heapBytes() - before;
    tot.finishMs += timed("serve.metrics.finish", [&] {
        const auto out =
            m.finish(spec.devices, svcNs * reqs.size(), 1.0, true);
        gSink = gSink + out.requests;
    });
}

void
probeServe(const sim::SimConfig &cfg)
{
    Span layer("serve");
    if (cfg.services.empty() || cfg.workloads.empty()) {
        fail("serve scenario '" + cfg.name + "' has no [service] cells");
        return;
    }
    std::vector<serve::Calibration> cals;
    gMetrics["serve.calibrate_ms"] = timed("serve.calibrate_all", [&] {
        for (const auto &ds : cfg.devices)
            cals.push_back(serve::ServeSimulator::calibrateAll(
                ds.config, serve::buildMix(cfg, ds.config)));
    });
    for (const auto &c : cals)
        if (!c.verified)
            fail("calibration failed functional verification");

    // The scenario's last cell: the heaviest of a rate sweep.
    const sim::DeviceSpec &ds = cfg.devices.back();
    const sim::ServiceSpec &last = cfg.services.back();
    const auto mix = serve::buildMix(cfg, ds.config);
    std::vector<serve::ServiceRunRecord> recs(1);
    recs[0].variant = ds.name;
    recs[0].service = last.name;
    recs[0].policy = sim::batchPolicyName(last.policy);
    recs[0].mode = last.closedLoop ? "closed" : "open";
    recs[0].devices = last.devices;
    recs[0].ratePerSec = last.ratePerSec;
    gMetrics["serve.run_ms"] = timed("serve.run", [&] {
        const serve::ServeSimulator simulator(ds, last, mix);
        recs[0].out = simulator.run(&cals.back());
    });
    gMetrics["serve.loop_ms"] = recs[0].out.loopHostMs;
    if (!recs[0].out.verified)
        fail("serve.run outcome not verified");
    gInfo["serve.run_cell"] = ds.name + " / " + last.name;
    gInfo["serve.run_requests"] = std::to_string(recs[0].out.requests);
    gMetrics["serve.render_ms"] =
        medianMs("serve.render", 5, 50, 200.0, [&] {
            gSink = gSink +
                    serve::ServiceMetricsSink::renderCsv(cfg, recs).size() +
                    serve::ServiceMetricsSink::renderJson(cfg, recs, 0.0)
                        .size();
        });

    ServeTotals tot;
    for (const sim::ServiceSpec &spec : cfg.services) {
        std::vector<serve::Request> reqs;
        tot.loadgenMs += timed("serve.loadgen.drain", [&] {
            serve::LoadGen gen(spec, mix);
            serve::Request r;
            while (gen.poll(std::numeric_limits<TimeNs>::infinity(), r))
                reqs.push_back(r);
        });
        tot.requests += reqs.size();
        tot.engineMs += timed("serve.engine.dispatch", [&] {
            tot.events += driveEngine(reqs, spec);
        });
        driveMemo(reqs, spec, mix.size(), tot);
        driveMetrics(reqs, spec, mix, tot);
    }
    const double n = static_cast<double>(std::max<u64>(1, tot.requests));
    gMetrics["serve.loadgen.ns_per_req"] = 1e6 * tot.loadgenMs / n;
    gMetrics["serve.engine.ns_per_event"] =
        1e6 * tot.engineMs / static_cast<double>(std::max<u64>(1, tot.events));
    gMetrics["serve.memo.ns_per_lookup"] =
        1e6 * tot.memoMs / static_cast<double>(std::max<u64>(1, tot.lookups));
    gMetrics["serve.metrics.ns_per_complete"] = 1e6 * tot.metricsMs / n;
    gMetrics["serve.metrics.bytes_per_req"] = tot.metricsBytes / n;
    gMetrics["serve.metrics.finish_ms"] = tot.finishMs;
    gInfo["serve.probe_requests"] = std::to_string(tot.requests);
}

// ---- workloads -----------------------------------------------------

void
probeWorkloads(u64 seed)
{
    Span layer("workloads");
    runtime::DeviceConfig cfg;
    cfg.memory = dram::MemoryKind::Ddr4;
    cfg.design = core::Design::Gmc;
    for (const char *name : kFig7) {
        const auto w = workloads::createWorkload(name);
        if (!w) {
            fail(std::string("unknown workload ") + name);
            continue;
        }
        runtime::PlutoDevice dev(cfg);
        const u64 elements = w->defaultElements(cfg.memory);
        workloads::WorkloadResult res;
        gMetrics[std::string("workloads.run_ms.") + name] =
            timed(std::string("workloads.run.") + name,
                  [&] { res = w->run(dev, elements, seed); });
        if (!res.verified)
            fail(std::string(name) + " failed functional verification");
    }
}

// ---- bulk ----------------------------------------------------------

void
probeBulk(u64 seed)
{
    Span layer("bulk");
    constexpr u64 kElems = u64(1) << 22;
    Rng rng(seed);
    for (u32 width : {1u, 4u, 8u}) {
        const auto lut = rng.values(u64(1) << width, u64(1) << width);
        const bulk::LutGather g(lut, width, "perfbench");
        const auto src = rng.bytes(kElems * width / 8);
        std::vector<u8> dst(src.size());
        gMetrics["bulk.gather_ns_per_elem.w" + std::to_string(width)] =
            1e6 *
            medianMs("bulk.gather.w" + std::to_string(width), 5, 50, 150.0,
                     [&] { g.apply(src, dst, kElems); }) /
            static_cast<double>(kElems);
        gSink = gSink + dst[dst.size() / 2];
    }
    const auto vals = rng.values(kElems, 256);
    std::vector<u8> packed(kElems);
    std::vector<u64> unpacked(kElems);
    gMetrics["bulk.pack_ns_per_elem.w8"] =
        1e6 *
        medianMs("bulk.pack.w8", 5, 50, 150.0,
                 [&] { bulk::packBulk(vals, 8, packed); }) /
        static_cast<double>(kElems);
    gMetrics["bulk.unpack_ns_per_elem.w8"] =
        1e6 *
        medianMs("bulk.unpack.w8", 5, 50, 150.0,
                 [&] { bulk::unpackBulk(packed, 8, unpacked); }) /
        static_cast<double>(kElems);
    if (unpacked != vals)
        fail("bulk pack/unpack round trip differs");
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonObj(const std::map<std::string, double> &m)
{
    std::string out = "{";
    char buf[64];
    for (const auto &[k, v] : m) {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (out.size() > 1 ? ", " : "") + jsonStr(k) + ": " + buf;
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenario, serveScenario, spansPath;
    u64 seed = 1;
    for (int i = 1; i < argc; i += 2) {
        const std::string arg = argv[i];
        if (i + 1 == argc) {
            std::fprintf(stderr, "perfbench_layers: %s needs a value\n",
                         arg.c_str());
            return 1;
        }
        if (arg == "--scenario")
            scenario = argv[i + 1];
        else if (arg == "--serve-scenario")
            serveScenario = argv[i + 1];
        else if (arg == "--spans")
            spansPath = argv[i + 1];
        else if (arg == "--seed")
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else {
            std::fprintf(stderr, "perfbench_layers: unknown flag %s\n",
                         arg.c_str());
            return 1;
        }
    }
    if (scenario.empty() || serveScenario.empty() || spansPath.empty()) {
        std::fprintf(stderr,
                     "usage: perfbench_layers --scenario W.ini "
                     "--serve-scenario S.ini --seed N --spans OUT.json\n");
        return 1;
    }

    const sim::SimConfig serveCfg = loadOrDie(serveScenario);
    const u32 lanes = serveCfg.services.empty()
                          ? sim::ServiceSpec{}.lanes
                          : serveCfg.services.back().lanes;
    {
        Span all("probes");
        probeSim(scenario);
        probeServe(serveCfg);
        probeRuntime(serveCfg.devices.front().config);
        probePluto(serveCfg.devices.front().config, lanes);
        probeWorkloads(seed);
        probeBulk(seed);
    }

    if (!gSpans.writeChromeJson(spansPath))
        fail("cannot write " + spansPath);
    std::string info = "{";
    for (const auto &[k, v] : gInfo)
        info += (info.size() > 1 ? ", " : "") + jsonStr(k) + ": " +
                jsonStr(v);
    info += "}";
    std::printf("{\"failures\": %u, \"metrics\": %s, \"self_ms\": %s, "
                "\"info\": %s}\n",
                gFailures, jsonObj(gMetrics).c_str(),
                jsonObj(gSpans.selfMs()).c_str(), info.c_str());
    return gFailures ? 2 : 0;
}
