/**
 * @file
 * Scenario and cache schema tests. The goldens pin what every spec
 * and outcome encoding produces byte for byte — the content keys of
 * the three campaign caches (default specs, one perturbation per
 * keyed field, every expanded cell of the example scenarios), the
 * digest of one JSONL line per outcome type, and a full field dump of
 * each example's expanded cells — so a refactor of the parser, the
 * key builders or the codecs must leave them untouched. The golden
 * builders below are written against the spec and outcome members
 * directly, independent of any schema table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include "child_rss.hh"
#include "golden.hh"
#include "nn/campaign.hh"
#include "serve/cache.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

#ifndef PLUTO_SOURCE_DIR
#define PLUTO_SOURCE_DIR "."
#endif

namespace pluto
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory per test. */
std::string
scratchDir(const std::string &name)
{
    const auto dir = (fs::temp_directory_path() / name).string();
    fs::remove_all(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** @return the path of every example scenario file, sorted. */
std::vector<std::string>
exampleScenarios()
{
    std::vector<std::string> paths;
    for (const auto &e : fs::directory_iterator(
             std::string(PLUTO_SOURCE_DIR) + "/examples/scenarios"))
        if (e.path().extension() == ".ini")
            paths.push_back(e.path().string());
    std::sort(paths.begin(), paths.end());
    return paths;
}

sim::SimConfig
loadExample(const std::string &path)
{
    std::string err;
    const auto cfg = sim::SimConfig::load(path, err);
    EXPECT_TRUE(cfg) << path << ": " << err;
    return cfg ? *cfg : sim::SimConfig{};
}

// ---- Fixed outcomes, one per cache type ----

sim::RunOutcome
fixedRun()
{
    sim::RunOutcome run;
    run.elements = 123456789ull;
    run.timeNs = 1.0 / 3.0;
    run.energyPj = 2.5e300;
    run.hostNs = 5e-324;
    run.verified = true;
    run.wallMs = 0.1;
    return run;
}

nn::NnOutcome
fixedNn()
{
    nn::NnOutcome out;
    out.images = 16;
    out.macs = 416520;
    out.timeNs = 123456.78901234567;
    out.energyPj = 9.875e7 / 3.0;
    out.accuracy = 0.8125;
    out.verified = true;
    out.wallMs = 2.0 / 7.0;
    return out;
}

/** Every field distinct, every list non-trivial. */
serve::ServiceOutcome
fixedService()
{
    serve::ServiceOutcome o;
    double x = 0.0;
    const auto next = [&x] { return x += 1.0 / 7.0; };
    o.requests = 4242;
    o.batches = 777;
    o.meanBatch = next();
    o.makespanMs = next();
    o.throughputRps = next();
    o.meanMs = next();
    o.p50Ms = next();
    o.p95Ms = next();
    o.p99Ms = next();
    o.p999Ms = next();
    o.maxMs = next();
    o.meanQueueDepth = next();
    o.maxQueueDepth = next();
    o.utilization = next();
    o.pjPerRequest = next();
    o.verified = true;
    for (double &p : o.phaseMs)
        p = next();
    o.sloMs = next();
    o.sloTarget = next();
    o.sloGood = 4000;
    o.sloViolations = 242;
    o.sloAttainment = next();
    o.sloBurnRate = next();
    o.tailQuantile = next();
    o.tailThresholdMs = next();
    o.tailRequests = 43;
    o.seriesIntervalMs = next();
    for (const double v : {0.5, 1.25, 3.0, 3.0, 1e-3, 40.0})
        o.latHist.add(v);
    for (u32 i = 0; i < 2; ++i) {
        serve::TailGroup g;
        g.tenant = i;
        g.cls = 2 * i + 1;
        g.workload = i ? "CRC-8" : "odd\"name\\";
        g.requests = 20 + i;
        g.meanMs = next();
        for (double &p : g.phaseMs)
            p = next();
        o.tail.push_back(g);
    }
    for (u32 i = 0; i < 3; ++i) {
        serve::SeriesWindow w;
        w.arrivals = 100 + i;
        w.completions = 90 + i;
        w.maxQueueDepth = next();
        w.maxInFlight = next();
        w.busyNs = next();
        w.p50Ms = next();
        w.p99Ms = next();
        o.series.push_back(w);
    }
    for (u32 i = 0; i < 2; ++i) {
        serve::TenantSummary t;
        t.tenant = 5 + i;
        t.requests = 2000 + i;
        t.meanMs = next();
        t.p50Ms = next();
        t.p95Ms = next();
        t.p99Ms = next();
        t.p999Ms = next();
        t.maxMs = next();
        for (double &p : t.phaseMs)
            p = next();
        t.sloMs = next();
        t.sloGood = 1900 + i;
        t.sloViolations = 100 - i;
        t.sloAttainment = next();
        t.sloBurnRate = next();
        o.tenants.push_back(t);
    }
    return o;
}

/** Append `out` under a fixed key; @return the entry line written. */
template <typename Cache, typename Outcome>
std::string
encodeLine(const std::string &tag, const Outcome &out)
{
    const auto dir = scratchDir("pluto_schema_encode_" + tag);
    Cache cache(dir, "j");
    EXPECT_TRUE(cache.append("0123456789abcdef", out).empty());
    const std::string text = readFile(cache.path());
    fs::remove_all(dir);
    return text.substr(text.find('\n') + 1);
}

// ---- Content-key golden ----

std::vector<serve::RequestClass>
defaultMix()
{
    serve::RequestClass c;
    c.workload = "ADD4";
    c.elements = 1024;
    return {c};
}

std::string
renderKeys()
{
    std::ostringstream o;
    const runtime::DeviceConfig dev;
    const sim::ServiceSpec svc;
    const sim::NnSpec nnSpec;
    const auto mix = defaultMix();

    const auto all = [&](const std::string &what,
                         const runtime::DeviceConfig &d) {
        o << what << " run "
          << sim::RunCache::key(d, "ADD4", 1024, 0, 0) << " serve "
          << serve::ServiceCache::key(d, svc, mix) << " nn "
          << nn::NnCache::key(d, nnSpec) << "\n";
    };
    all("default", dev);
    const auto dv = [&](const std::string &what, auto mutate) {
        runtime::DeviceConfig d = dev;
        mutate(d);
        all("device." + what, d);
    };
    dv("memory", [](auto &d) { d.memory = dram::MemoryKind::Hmc3ds; });
    dv("design", [](auto &d) { d.design = core::Design::Gmc; });
    dv("salp", [](auto &d) { d.salp = 4; });
    dv("faw", [](auto &d) { d.fawScale = 0.5; });
    dv("refresh", [](auto &d) { d.modelRefresh = true; });
    dv("load_method", [](auto &d) {
        d.loadMethod = core::LutLoadMethod::FromStorage;
    });

    o << "run.workload " << sim::RunCache::key(dev, "CRC-8", 1024, 0, 0)
      << "\nrun.elements " << sim::RunCache::key(dev, "ADD4", 2048, 0, 0)
      << "\nrun.seed " << sim::RunCache::key(dev, "ADD4", 1024, 7, 0)
      << "\nrun.repeat " << sim::RunCache::key(dev, "ADD4", 1024, 0, 1)
      << "\n";

    const auto sv = [&](const std::string &what, auto mutate) {
        sim::ServiceSpec s = svc;
        mutate(s);
        o << "service." << what << " "
          << serve::ServiceCache::key(dev, s, mix) << "\n";
    };
    sv("name", [](auto &s) { s.name = "other"; });
    sv("mode", [](auto &s) { s.closedLoop = true; });
    sv("arrivals", [](auto &s) { s.uniformArrivals = true; });
    sv("rate", [](auto &s) { s.ratePerSec = 2000.0; });
    sv("duration_ms", [](auto &s) { s.durationMs = 50.0; });
    sv("clients", [](auto &s) { s.clients = 4; });
    sv("think_ms", [](auto &s) { s.thinkMs = 0.5; });
    sv("policy",
       [](auto &s) { s.policy = sim::BatchPolicyKind::Adaptive; });
    sv("batch", [](auto &s) { s.batch = 4; });
    sv("window_ms", [](auto &s) { s.windowMs = 0.1; });
    sv("devices", [](auto &s) { s.devices = 2; });
    sv("lanes", [](auto &s) { s.lanes = 8; });
    sv("seed", [](auto &s) { s.seed = 9; });
    sv("slo_ms", [](auto &s) { s.sloMs = 1.5; });
    sv("slo_target", [](auto &s) { s.sloTarget = 0.9; });
    sv("tail_quantile", [](auto &s) { s.tailQuantile = 0.95; });
    sv("timeseries_ms", [](auto &s) { s.timeseriesMs = 2.0; });
    sv("tenant_skew", [](auto &s) { s.tenantSkew = 1.2; });
    sv("memo", [](auto &s) { s.memo = sim::MemoMode::Off; });

    const auto mv = [&](const std::string &what, auto mutate) {
        auto m = mix;
        mutate(m[0]);
        o << "mix." << what << " "
          << serve::ServiceCache::key(dev, svc, m) << "\n";
    };
    mv("workload", [](auto &c) { c.workload = "CRC-8"; });
    mv("elements", [](auto &c) { c.elements = 2048; });
    mv("seed", [](auto &c) { c.seed = 3; });
    mv("tenant", [](auto &c) { c.tenant = 1; });
    mv("weight", [](auto &c) { c.weight = 2.5; });
    mv("slo_ms", [](auto &c) { c.sloMs = 0.75; });

    const auto nv = [&](const std::string &what, auto mutate) {
        sim::NnSpec s = nnSpec;
        mutate(s);
        o << "nn." << what << " " << nn::NnCache::key(dev, s) << "\n";
    };
    nv("name", [](auto &s) { s.name = "other"; });
    nv("bits", [](auto &s) { s.bits = 4; });
    nv("images", [](auto &s) { s.images = 16; });
    nv("seed", [](auto &s) { s.seed = 6; });

    // Every expanded cell of every example, keyed as the runners do.
    for (const auto &path : exampleScenarios()) {
        const sim::SimConfig cfg = loadExample(path);
        const std::string scn = fs::path(path).filename().string();
        for (const auto &d : cfg.devices) {
            for (const auto &w : cfg.workloads) {
                const u64 elements =
                    w.elements ? w.elements
                               : workloads::makeWorkload(w.name)
                                     ->defaultElements(d.config.memory);
                for (u32 r = 0; r < w.repeats * cfg.repeats; ++r)
                    o << scn << " run " << d.name << " " << w.name
                      << " " << r << " "
                      << sim::RunCache::key(d.config, w.name, elements,
                                            w.seed, r)
                      << "\n";
            }
            if (!cfg.workloads.empty()) {
                const auto m = serve::buildMix(cfg, d.config);
                for (const auto &s : cfg.services)
                    o << scn << " serve " << d.name << " " << s.name
                      << " "
                      << serve::ServiceCache::key(d.config, s, m)
                      << "\n";
            }
            for (const auto &n : cfg.nnCells)
                o << scn << " nn " << d.name << " " << n.name << " "
                  << nn::NnCache::key(d.config, n) << "\n";
        }
    }
    return o.str();
}

TEST(SchemaGoldens, CacheKeys)
{
    test::expectGolden("cache_keys", renderKeys(), "cache content keys");
}

TEST(SchemaGoldens, CodecRecords)
{
    const auto run = encodeLine<sim::RunCache>("sim", fixedRun());
    const auto svc =
        encodeLine<serve::ServiceCache>("serve", fixedService());
    const auto nnLine = encodeLine<nn::NnCache>("nn", fixedNn());
    std::ostringstream o;
    for (const auto &[name, line] :
         {std::pair<const char *, const std::string &>{"sim", run},
          {"serve", svc},
          {"nn", nnLine}})
        o << name << " jsonl " << fnv1aHex(line) << " " << line.size()
          << "B\n";
    test::expectGolden("cache_codecs", o.str(), "cache encodings");
}

// ---- Expanded-cell golden ----

std::string
renderCells()
{
    std::ostringstream o;
    const auto x = fmtDoubleExact;
    for (const auto &path : exampleScenarios()) {
        const sim::SimConfig cfg = loadExample(path);
        o << "[" << fs::path(path).filename().string() << "] name="
          << cfg.name << " out_dir=" << cfg.outDir
          << " repeats=" << cfg.repeats << "\n";
        for (const auto &d : cfg.devices) {
            const auto &c = d.config;
            o << "device " << d.name
              << " memory=" << static_cast<int>(c.memory)
              << " design=" << static_cast<int>(c.design)
              << " salp=" << c.salp << " faw=" << x(c.fawScale)
              << " refresh=" << c.modelRefresh
              << " load_method=" << static_cast<int>(c.loadMethod)
              << "\n";
        }
        for (const auto &w : cfg.workloads)
            o << "workload " << w.name << " elements=" << w.elements
              << " repeats=" << w.repeats << " seed=" << w.seed
              << " tenant=" << w.tenant << " weight=" << x(w.weight)
              << " slo_ms=" << x(w.sloMs) << "\n";
        for (const auto &s : cfg.services)
            o << "service " << s.name << " closed=" << s.closedLoop
              << " uniform=" << s.uniformArrivals
              << " rate=" << x(s.ratePerSec)
              << " duration_ms=" << x(s.durationMs)
              << " clients=" << s.clients
              << " think_ms=" << x(s.thinkMs)
              << " policy=" << static_cast<int>(s.policy)
              << " batch=" << s.batch
              << " window_ms=" << x(s.windowMs)
              << " devices=" << s.devices << " lanes=" << s.lanes
              << " seed=" << s.seed << " slo_ms=" << x(s.sloMs)
              << " slo_target=" << x(s.sloTarget)
              << " tail_quantile=" << x(s.tailQuantile)
              << " tenant_skew=" << x(s.tenantSkew)
              << " timeseries_ms=" << x(s.timeseriesMs)
              << " memo=" << static_cast<int>(s.memo) << "\n";
        for (const auto &n : cfg.nnCells)
            o << "nn " << n.name << " bits=" << n.bits
              << " images=" << n.images << " seed=" << n.seed << "\n";
    }
    return o.str();
}

TEST(SchemaGoldens, ScenarioCells)
{
    test::expectGolden("scenario_cells", renderCells(),
                       "expanded scenario cells");
}


// ---- Checked integer decoding ----

using Loaded = std::pair<std::size_t, u64>; // entries, corrupt lines

/** Load a JSONL cache of kind `kind` holding `lines`. */
template <typename Cache>
Loaded
loadLines(const std::string &kind, const std::vector<std::string> &lines)
{
    const auto dir = scratchDir("pluto_schema_lines_" + kind);
    fs::create_directories(dir);
    {
        std::ofstream out(dir + "/s." + kind + ".cache.jsonl");
        out << "{\"cacheFormat\":2,\"kind\":\"" << kind << "\"}\n";
        for (const auto &l : lines)
            out << l;
    }
    Cache cache(dir, "s");
    EXPECT_EQ(cache.load(), "");
    const Loaded got{cache.entries(), cache.corruptLines()};
    fs::remove_all(dir);
    return got;
}

/** @return `line` with the value of its first `"name":` replaced. */
std::string
withValue(std::string line, const std::string &name,
          const std::string &value)
{
    const std::string tag = "\"" + name + "\":";
    const auto at = line.find(tag);
    EXPECT_NE(at, std::string::npos) << name;
    const auto b = at + tag.size();
    return line.replace(b, line.find_first_of(",]}", b) - b, value);
}

TEST(CacheDecode, RejectsIntegersThatDoNotFitTheirField)
{
    const std::string run =
        encodeLine<sim::RunCache>("int_sim", fixedRun());
    const std::string nnLine =
        encodeLine<nn::NnCache>("int_nn", fixedNn());
    const std::string svc =
        encodeLine<serve::ServiceCache>("int_serve", fixedService());
    // Controls: the untouched lines replay.
    EXPECT_EQ(loadLines<sim::RunCache>("sim", {run}), Loaded(1, 0));
    EXPECT_EQ(loadLines<nn::NnCache>("nn", {nnLine}), Loaded(1, 0));
    EXPECT_EQ(loadLines<serve::ServiceCache>("serve", {svc}),
              Loaded(1, 0));

    // Negative, fractional, huge and just-out-of-range integers
    // used to replay through an undefined cast; now each line counts
    // as corrupt and its cell is recomputed.
    for (const char *bad : {"-1", "2.5e30", "1.5", "-0.5",
                            "18446744073709551616", "1e20"})
        EXPECT_EQ(loadLines<sim::RunCache>(
                      "sim", {withValue(run, "elements", bad)}),
                  Loaded(0, 1))
            << bad;
    for (const char *name : {"images", "macs"})
        EXPECT_EQ(loadLines<nn::NnCache>("nn",
                                         {withValue(nnLine, name, "-3")}),
                  Loaded(0, 1))
            << name;
    const std::pair<const char *, const char *> serveCases[] = {
        {"requests", "-1"},    {"batches", "0.25"},
        {"slo_good", "1e300"}, {"tail_requests", "-7"},
        {"count", "-6"},       {"count", "6.5"},
        {"tenant", "4294967296"}, {"class", "-1"},
        {"buckets", "[[2147483648,6]]"},
        {"buckets", "[[-2147483649,6]]"},
    };
    for (const auto &[name, bad] : serveCases)
        EXPECT_EQ(loadLines<serve::ServiceCache>(
                      "serve", {withValue(svc, name, bad)}),
                  Loaded(0, 1))
            << name << "=" << bad;
    // Series windows are positional: corrupt the first arrivals.
    const auto series = svc.find("\"series\":[[") + 11;
    std::string neg = svc;
    neg.insert(series, "-");
    EXPECT_EQ(loadLines<serve::ServiceCache>("serve", {neg}),
              Loaded(0, 1));
    // A bucket count that no longer sums to the histogram count.
    EXPECT_EQ(loadLines<serve::ServiceCache>(
                  "serve", {withValue(svc, "count", "7")}),
              Loaded(0, 1));
}

/** @return `line` with its whole histogram "buckets" array replaced. */
std::string
withBuckets(std::string line, const std::string &buckets)
{
    const std::string tag = "\"buckets\":";
    const auto at = line.find(tag);
    EXPECT_NE(at, std::string::npos);
    const auto b = at + tag.size();
    const auto e = line.find("]]", b);
    EXPECT_NE(e, std::string::npos);
    return line.replace(b, e + 2 - b, buckets);
}

TEST(CacheDecode, RejectsHistogramBucketsOutsideTheIndexRanges)
{
    using obs::Histogram;
    const std::string svc =
        encodeLine<serve::ServiceCache>("hist_serve", fixedService());
    const auto load = [](const std::string &line) {
        return loadLines<serve::ServiceCache>("serve", {line});
    };
    // fixedService()'s latency histogram holds 6 samples. Controls:
    // every legal index range replays — underflow, the lowest and
    // highest regular bucket, overflow, and all of them at once.
    const std::string okIdx[] = {
        "[[0,6]]",
        "[[64,6]]",
        "[[" + std::to_string(Histogram::kOverflowBucket - 1) + ",6]]",
        "[[" + std::to_string(Histogram::kOverflowBucket) + ",6]]",
        "[[0,1],[64,1],[1000,1],[" +
            std::to_string(Histogram::kOverflowBucket) + ",3]]",
    };
    for (const auto &b : okIdx)
        EXPECT_EQ(load(withBuckets(svc, b)), Loaded(1, 0)) << b;

    // Hostile indices next to a real regular bucket, in both orders:
    // a dense store sized from them would span up to 2^31 slots.
    // Each line must count as corrupt instead.
    std::vector<std::string> bad;
    for (const i64 idx :
         {i64{-1}, i64{1}, i64{63}, i64{INT32_MAX},
          i64{Histogram::kOverflowBucket} + 1}) {
        const std::string i = std::to_string(idx);
        bad.push_back("[[64,1],[" + i + ",5]]");
        bad.push_back("[[" + i + ",5],[64,1]]");
    }
    // A zero-count bucket is never written either.
    bad.push_back("[[64,6],[100,0]]");
    for (const auto &b : bad)
        EXPECT_EQ(load(withBuckets(svc, b)), Loaded(0, 1)) << b;

    // ... and costs no more memory than replaying the control line.
    const long control = test::childPeakRssKb([&] {
        return load(withBuckets(svc, okIdx[4])) == Loaded(1, 0) ? 0 : 1;
    });
    const long hostile = test::childPeakRssKb([&] {
        for (const auto &b : bad)
            if (load(withBuckets(svc, b)) != Loaded(0, 1))
                return 1;
        return 0;
    });
    EXPECT_LT(hostile - control, 8 * 1024)
        << "control " << control << " KiB, hostile " << hostile
        << " KiB";
}

// ---- Key completeness ----

/** Candidate INI values: numbers of several shapes plus every
 *  spelling the field's hint lists. */
std::vector<std::string>
candidates(const std::string &hint)
{
    std::vector<std::string> c = {"0",   "1",    "2",    "4",
                                  "7",   "16",   "0.25", "0.5",
                                  "0.75", "1.5", "ddr4", "on"};
    for (std::size_t start = 0;;) {
        const auto bar = hint.find(" | ", start);
        c.push_back(hint.substr(start, bar - start));
        if (bar == std::string::npos)
            return c;
        start = bar + 3;
    }
}

/**
 * Walk `table` from `base`: every keyed field must map each distinct
 * valid value to a distinct `keyOf` key; every other field must leave
 * the key unchanged.
 */
template <typename S, typename KeyOf>
void
expectKeyComplete(std::span<const sim::Field<S>> table, const S &base,
                  KeyOf keyOf)
{
    for (const auto &f : table) {
        std::map<std::string, std::string> keyByValue;
        for (const auto &c : candidates(f.hint)) {
            S s = base;
            if (!f.parse(s, c))
                continue;
            std::string canonical;
            f.write(s, canonical);
            keyByValue.emplace(canonical, keyOf(s));
        }
        std::set<std::string> keys;
        for (const auto &[value, key] : keyByValue) {
            keys.insert(key);
            if (!f.keyed()) {
                EXPECT_EQ(key, keyOf(base))
                    << f.key << " = " << value
                    << " is not keyed but changes the key";
            }
        }
        if (f.keyed()) {
            EXPECT_GE(keyByValue.size(), 2u) << f.key;
            EXPECT_EQ(keys.size(), keyByValue.size())
                << f.key << " is keyed but does not reach the key";
        }
    }
}

TEST(CacheKeys, EveryKeyedFieldReachesTheKeyAndNoOtherDoes)
{
    const runtime::DeviceConfig dev;
    sim::ServiceSpec svc;
    const sim::NnSpec nnSpec;
    const auto mix = defaultMix();

    expectKeyComplete(sim::kDeviceFields, dev, [](const auto &d) {
        return sim::RunCache::key(d, "ADD4", 1024, 0, 0);
    });
    expectKeyComplete(sim::kDeviceFields, dev, [&](const auto &d) {
        return serve::ServiceCache::key(d, svc, mix);
    });
    expectKeyComplete(sim::kDeviceFields, dev, [&](const auto &d) {
        return nn::NnCache::key(d, nnSpec);
    });
    expectKeyComplete(sim::kServiceFields, svc, [&](const auto &s) {
        return serve::ServiceCache::key(dev, s, mix);
    });
    expectKeyComplete(sim::kNnFields, nnSpec, [&](const auto &n) {
        return nn::NnCache::key(dev, n);
    });
    sim::WorkloadSpec work;
    work.name = "ADD4";
    work.elements = 1024;
    expectKeyComplete(sim::kWorkloadFields, work, [&](const auto &w) {
        sim::SimConfig cfg;
        cfg.workloads = {w};
        return serve::ServiceCache::key(dev, svc,
                                        serve::buildMix(cfg, dev));
    });

    // Names label cells; they never key them.
    const std::string svcKey = serve::ServiceCache::key(dev, svc, mix);
    svc.name = "renamed";
    EXPECT_EQ(serve::ServiceCache::key(dev, svc, mix), svcKey);
    sim::NnSpec renamed = nnSpec;
    renamed.name = "renamed";
    EXPECT_EQ(nn::NnCache::key(dev, renamed), nn::NnCache::key(dev, nnSpec));
}

// ---- Seeded mutation ----

constexpr int kMutants = 2000;

/** One fixed-seed mutant of `text`: a bit flip, a truncation, a digit
 *  edit or a dropped line (INI) / member (JSON). */
std::string
mutate(const std::string &text, std::mt19937_64 &rng, bool json)
{
    std::string m = text;
    if (m.empty())
        return m;
    switch (rng() % 4) {
      case 0:
        m[rng() % m.size()] ^= static_cast<char>(1u << (rng() % 8));
        break;
      case 1:
        m.resize(rng() % m.size());
        break;
      case 2: {
        std::vector<std::size_t> digits;
        for (std::size_t i = 0; i < m.size(); ++i)
            if (std::isdigit(static_cast<unsigned char>(m[i])))
                digits.push_back(i);
        if (!digits.empty())
            m[digits[rng() % digits.size()]] = "0123456789-.e"[rng() % 13];
        break;
      }
      default: {
        const char *open = json ? ",\"" : "\n";
        const auto at = m.find(open, rng() % m.size());
        if (at == std::string::npos)
            break;
        const auto end = json ? m.find_first_of(",}", at + 1)
                              : m.find('\n', at + 1);
        m.erase(at, end == std::string::npos ? end : end - at);
      }
    }
    return m;
}

TEST(Mutation, ScenarioMutantsParseOrFailWithALineDiagnostic)
{
    std::mt19937_64 rng(20221001);
    for (const auto &path : exampleScenarios()) {
        const std::string text = readFile(path);
        u64 parsed = 0;
        for (int i = 0; i < kMutants; ++i) {
            const std::string m = mutate(text, rng, false);
            std::string err;
            if (sim::SimConfig::parse(m, err)) {
                ++parsed;
                continue;
            }
            // The one file-level diagnostic has no line to point at.
            const bool located =
                err.rfind("line ", 0) == 0 ||
                err == "scenario declares no [workload] or [nn] sections";
            EXPECT_TRUE(located) << path << " mutant " << i << ": " << err;
        }
        EXPECT_GT(parsed, 0u) << path;
    }
}

/**
 * Mutate one outcome's JSONL line kMutants times: every mutant must
 * load as an entry or count as corrupt.
 */
template <typename Cache, typename Outcome>
void
expectMutantsDecodeOrCountCorrupt(const std::string &kind,
                                  const Outcome &out)
{
    const std::string entry = encodeLine<Cache>("mut_" + kind, out);
    const auto dir = scratchDir("pluto_schema_mut_" + kind);
    fs::create_directories(dir);
    std::mt19937_64 rng(7 + kind.size());
    u64 decoded = 0;
    for (int i = 0; i < kMutants; ++i) {
        const std::string line = mutate(entry, rng, true);
        {
            std::ofstream f(dir + "/j." + kind + ".cache.jsonl");
            f << "{\"cacheFormat\":2,\"kind\":\"" << kind << "\"}\n"
              << line;
        }
        Cache jsonl(dir, "j");
        ASSERT_EQ(jsonl.load(), "");
        // Only a mutant with no line left (all of it cut) loads nothing.
        if (line.find_first_not_of('\n') != std::string::npos) {
            EXPECT_GE(jsonl.entries() + jsonl.corruptLines(), 1u) << i;
        }
        decoded += jsonl.entries();
    }
    // Some mutants (e.g. a flipped digit in a double) stay valid.
    EXPECT_GT(decoded, 0u);
    fs::remove_all(dir);
}

TEST(Mutation, CacheMutantsDecodeOrCountCorrupt)
{
    expectMutantsDecodeOrCountCorrupt<sim::RunCache>("sim", fixedRun());
    expectMutantsDecodeOrCountCorrupt<nn::NnCache>("nn", fixedNn());
    expectMutantsDecodeOrCountCorrupt<serve::ServiceCache>(
        "serve", fixedService());
}

} // namespace
} // namespace pluto
