/**
 * @file
 * Campaign-core tests: forEachTask edge cases (zero tasks, more
 * threads than tasks, worker-index stability/uniqueness, exception
 * propagation, task-order telemetry folds), the cached-cell loop
 * (hit/miss accounting, replay, appends, shard filtering), the
 * JsonlCache version header (legacy files load, future formats and
 * retired binary files are rejected with a clear error), exact codec
 * round trips, per-mode key namespacing (equal descriptors cannot
 * collide across modes in a shared --cache-dir), the nn and service
 * modes' sharded+cached byte-identity and every mode's wall rule —
 * the properties every mode inherits from the core.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/cli.hh"
#include "campaign/runner.hh"
#include "nn/campaign.hh"
#include "obs/registry.hh"
#include "serve/cache.hh"
#include "serve/runner.hh"
#include "sim/cache.hh"
#include "sim/runner.hh"

namespace pluto::campaign
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

// ---- forEachTask ----

TEST(ForEachTask, ZeroTasksRunsNothing)
{
    std::atomic<u64> calls{0};
    forEachTask(0, 0, [&](std::size_t, u32) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0u);
}

TEST(ForEachTask, MoreThreadsThanTasksCoversEveryIndexOnce)
{
    // 64 requested workers, 5 tasks: the pool clamps to the task
    // count and still runs every index exactly once.
    EXPECT_EQ(resolveThreads(5, 64), 5u);
    EXPECT_EQ(spareThreads(5, 64), 59u);
    EXPECT_EQ(spareThreads(64, 5), 0u);
    std::vector<std::atomic<u32>> ran(5);
    forEachTask(5, 64, [&](std::size_t i, u32 w) {
        EXPECT_LT(w, 5u);
        ran[i].fetch_add(1);
    });
    for (const auto &r : ran)
        EXPECT_EQ(r.load(), 1u);
}

TEST(ForEachTask, WorkerIndicesAreStableAndUnique)
{
    // Every OS thread must observe exactly one worker index, and no
    // two threads may share one — the contract that makes per-worker
    // ScratchArena slots race-free.
    constexpr u32 kThreads = 4;
    constexpr std::size_t kTasks = 400;
    std::mutex mu;
    std::map<std::thread::id, std::set<u32>> seen;
    forEachTask(kTasks, kThreads, [&](std::size_t, u32 w) {
        EXPECT_LT(w, kThreads);
        std::lock_guard<std::mutex> lock(mu);
        seen[std::this_thread::get_id()].insert(w);
    });
    std::set<u32> workers;
    for (const auto &[tid, ws] : seen) {
        EXPECT_EQ(ws.size(), 1u) << "thread saw several indices";
        workers.insert(*ws.begin());
    }
    EXPECT_EQ(workers.size(), seen.size())
        << "two threads shared a worker index";
}

TEST(ForEachTask, SingleThreadUsesWorkerZero)
{
    forEachTask(17, 1,
                [&](std::size_t, u32 w) { EXPECT_EQ(w, 0u); });
}

TEST(ForEachTask, PropagatesWorkerExceptions)
{
    // A throwing cell must surface on the calling thread (not
    // std::terminate) and stop the queue early. Non-throwing cells
    // dawdle so the failure reliably outruns the healthy workers.
    std::atomic<u64> calls{0};
    const auto boom = [&](std::size_t i, u32) {
        calls.fetch_add(1);
        if (i == 3)
            throw std::runtime_error("cell 3 failed");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    };
    EXPECT_THROW(forEachTask(1000, 4, boom), std::runtime_error);
    EXPECT_LT(calls.load(), 1000u) << "queue was not drained early";

    // Single-threaded path propagates too, after exactly 4 cells.
    calls.store(0);
    EXPECT_THROW(forEachTask(10, 1, boom), std::runtime_error);
    EXPECT_EQ(calls.load(), 4u);
}

TEST(ForEachTask, TelemetryFoldsInTaskOrder)
{
    // Counter values whose double sum depends on association: in
    // task order ((1 + 1e16) - 1e16) == 0, while a per-worker fold
    // that pairs tasks 1 and 2 on one worker yields 1. Task 0 is slow,
    // so the other worker runs every remaining task.
    const std::vector<double> values = {1.0, 1e16, -1e16, 3.0, -3.0};
    double expect = 0.0;
    for (const double v : values)
        expect += v;
    auto &reg = obs::Registry::get();
    for (const u32 threads : {1u, 2u, 4u}) {
        reg.enable(true);
        reg.reset();
        forEachTask(values.size(), threads, [&](std::size_t i, u32) {
            if (i == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            obs::shard()->add("unit/sum", values[i]);
        });
        EXPECT_EQ(reg.root().counters().at("unit/sum"), expect)
            << threads << " threads";
        reg.reset();
        reg.enable(false);
    }
}

// ---- CLI flag parsing ----

TEST(CliMain, ThreadsMustBeAWholeUnsignedDecimal)
{
    const auto dir = scratchDir("pluto_campaign_cli_test");
    fs::create_directories(dir);
    const std::string ini = dir + "/tiny.ini";
    {
        std::ofstream out(ini);
        out << "[scenario]\nname = tiny\n[device]\ndesign = gmc\n"
               "[workload ADD4]\nelements = 1024\n";
    }
    int runs = 0;
    u32 threads = 99;
    const std::vector<Mode> modes = {
        {"batch", "", "test mode", {}, [](const sim::SimConfig &) {
             return std::string("1");
         },
         [&](const sim::SimConfig &cfg, const CliInvocation &inv) {
             ++runs;
             threads = inv.opt.threads;
             return sim::ScenarioRunner(cfg).run(inv.opt).allVerified()
                        ? 0
                        : 2;
         }}};
    const auto cli = [&](const std::string &value) {
        std::vector<std::string> args = {"pluto_sim", "--threads",
                                         value, "--quiet", ini};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        return cliMain(static_cast<int>(argv.size()), argv.data(),
                       modes);
    };

    // Rejected before any scenario loads or any mode runs.
    for (const std::string bad : {"abc", "2x", "-1", "", " 1", "+1"})
        EXPECT_EQ(cli(bad), 1) << "'" << bad << "'";
    EXPECT_EQ(runs, 0);

    EXPECT_EQ(cli("1"), 0);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(threads, 1u);
    fs::remove_all(dir);
}

// ---- JsonlCache format versioning ----

/** Minimal outcome + cache mode for format tests. */
struct TinyOutcome
{
    double value = 0.0;
};

template <typename V, RecordOf<TinyOutcome> T>
void
fields(V &v, T &out)
{
    v("value", out.value);
}

struct TinyCodec
{
    static constexpr const char *kKind = "tiny";
};

using TinyCache = JsonlCache<TinyOutcome, TinyCodec>;

// ---- The cached-cell loop ----

/** Record of the cell-loop tests: one label + a TinyOutcome. */
struct TinyRecord
{
    int label = -1;
    TinyOutcome out;
    bool fromCache = false;
};

/** The content key of tiny task `t`: "k<t>". */
std::string
tinyKey(int t)
{
    std::string key = "k";
    key += std::to_string(t);
    return key;
}

/** Cells keyed by tinyKey that compute task + 1, counting computes. */
CellFns<int, TinyRecord>
tinyCells(std::atomic<int> &computes)
{
    CellFns<int, TinyRecord> cell;
    cell.label = [](const int &t, TinyRecord &rec) { rec.label = t; };
    cell.key = [](const int &t) { return tinyKey(t); };
    cell.compute = [&computes](const int &t, TinyRecord &rec,
                               ScratchArena &) {
        computes.fetch_add(1);
        rec.out.value = t + 1;
    };
    return cell;
}

TEST(RunCampaign, CountsHitsAndZerosWallUnderDeterminism)
{
    const auto dir = scratchDir("pluto_campaign_loop_test");
    {
        // Pretend even cells were cached, with a marker value.
        TinyCache seed(dir, "loop");
        for (int t = 0; t < 10; t += 2)
            ASSERT_TRUE(seed.append(tinyKey(t), {-1.0 * t}).empty());
    }
    std::vector<int> tasks(10);
    for (int t = 0; t < 10; ++t)
        tasks[t] = t;
    std::atomic<int> computes{0};
    const auto cell = tinyCells(computes);

    RunOptions opt;
    opt.threads = 2;
    opt.deterministic = true;
    opt.cacheDir = dir;
    const auto report =
        runCampaign<TinyCache>(tasks, opt, "loop", cell);
    EXPECT_EQ(report.cacheHits, 5u);
    EXPECT_EQ(report.cacheMisses, 5u);
    EXPECT_EQ(report.wallMs, 0.0);
    EXPECT_EQ(computes.load(), 5);
    ASSERT_EQ(report.runs.size(), 10u);
    for (int t = 0; t < 10; ++t) {
        const TinyRecord &r = report.runs[t];
        EXPECT_EQ(r.label, t);
        EXPECT_EQ(r.fromCache, t % 2 == 0) << t;
        EXPECT_EQ(r.out.value, t % 2 == 0 ? -1.0 * t : t + 1.0) << t;
    }

    // The misses were appended: a rerun replays every cell.
    const auto warm = runCampaign<TinyCache>(tasks, opt, "loop", cell);
    EXPECT_EQ(warm.cacheHits, 10u);
    EXPECT_EQ(computes.load(), 5);

    // Sharding filters by global task index, keeping task order.
    opt.shardIndex = 1;
    opt.shardCount = 3;
    const auto shard =
        runCampaign<TinyCache>(tasks, opt, "loop", cell);
    ASSERT_EQ(shard.runs.size(), 3u);
    EXPECT_EQ(shard.runs[0].label, 1);
    EXPECT_EQ(shard.runs[1].label, 4);
    EXPECT_EQ(shard.runs[2].label, 7);

    // Without a cache directory nothing is keyed or replayed.
    RunOptions cold;
    cold.threads = 1;
    const auto uncached =
        runCampaign<TinyCache>(tasks, cold, "loop", cell);
    EXPECT_EQ(uncached.cacheHits, 0u);
    EXPECT_EQ(uncached.cacheMisses, 10u);
    EXPECT_EQ(computes.load(), 15);
    fs::remove_all(dir);
}

TEST(RunCampaign, TellsTheModeItsSpareThreadsBeforeAnyCell)
{
    std::vector<int> tasks(10);
    for (int t = 0; t < 10; ++t)
        tasks[t] = t;
    std::atomic<int> computes{0};
    auto cell = tinyCells(computes);
    int calls = 0;
    u32 told = 0;
    cell.spare = [&](u32 n) {
        ++calls;
        told = n;
        EXPECT_EQ(computes.load(), 0);
    };

    // Shard 1/3 holds 3 of the 10 cells: 3 of 6 threads run them.
    RunOptions opt;
    opt.threads = 6;
    opt.shardIndex = 1;
    opt.shardCount = 3;
    runCampaign<TinyCache>(tasks, opt, "spare", cell);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(told, 3u);
    EXPECT_EQ(computes.load(), 3);
}

TEST(JsonlCacheFormat, NewFilesLeadWithVersionHeader)
{
    const auto dir = scratchDir("pluto_campaign_header_test");
    TinyCache cache(dir, "hdr");
    ASSERT_TRUE(cache.append("aaaa", {1.5}).empty());

    std::ifstream in(cache.path());
    std::string first;
    ASSERT_TRUE(std::getline(in, first));
    EXPECT_EQ(first, "{\"cacheFormat\":2,\"kind\":\"tiny\"}");

    TinyCache reader(dir, "hdr");
    EXPECT_TRUE(reader.load().empty());
    EXPECT_EQ(reader.entries(), 1u);
    EXPECT_EQ(reader.corruptLines(), 0u);
    EXPECT_EQ(reader.lookup("aaaa")->value, 1.5);
    fs::remove_all(dir);
}

TEST(JsonlCacheFormat, AcceptsLegacyUnversionedFiles)
{
    // Pre-v2 cache files have no header: every line is an entry.
    const auto dir = scratchDir("pluto_campaign_legacy_test");
    fs::create_directories(dir);
    {
        std::ofstream out(dir + "/legacy.tiny.cache.jsonl",
                          std::ios::binary);
        out << "{\"key\":\"aaaa\",\"value\":0.25}\n";
        out << "{\"key\":\"bbbb\",\"value\":4}\n";
    }
    TinyCache cache(dir, "legacy");
    EXPECT_TRUE(cache.load().empty());
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.corruptLines(), 0u);
    EXPECT_EQ(cache.lookup("bbbb")->value, 4.0);
    fs::remove_all(dir);
}

TEST(JsonlCacheFormat, RejectsFutureFormatsWithClearError)
{
    // A future writer's file must fail loudly, not dissolve into
    // "every line is corrupt".
    const auto dir = scratchDir("pluto_campaign_future_test");
    fs::create_directories(dir);
    {
        std::ofstream out(dir + "/future.tiny.cache.jsonl",
                          std::ios::binary);
        out << "{\"cacheFormat\":99,\"kind\":\"tiny\"}\n";
        out << "{\"key\":\"aaaa\",\"value\":1}\n";
    }
    TinyCache cache(dir, "future");
    const std::string err = cache.load();
    EXPECT_NE(err.find("cacheFormat 99"), std::string::npos) << err;
    EXPECT_NE(err.find("formats <= 2"), std::string::npos) << err;
    EXPECT_EQ(cache.entries(), 0u);
    fs::remove_all(dir);
}

TEST(JsonlCacheFormat, DuplicateHeadersFromRacingCreatorsAreSkipped)
{
    // Two shard processes may both think they created the file; the
    // loader must skip headers wherever they appear.
    const auto dir = scratchDir("pluto_campaign_dup_header_test");
    TinyCache writer(dir, "race");
    ASSERT_TRUE(writer.append("aaaa", {1.0}).empty());
    {
        std::ofstream out(writer.path(),
                          std::ios::binary | std::ios::app);
        out << "{\"cacheFormat\":2,\"kind\":\"tiny\"}\n";
        out << "{\"key\":\"bbbb\",\"value\":2}\n";
    }
    TinyCache reader(dir, "race");
    EXPECT_TRUE(reader.load().empty());
    EXPECT_EQ(reader.entries(), 2u);
    EXPECT_EQ(reader.corruptLines(), 0u);
    fs::remove_all(dir);
}

TEST(JsonlCacheFormat, RejectsRetiredBinaryFilesWithClearError)
{
    // Earlier builds wrote a binary encoding at the same path: a JSON
    // header line, then [u32 len][u32 fnv1a32][u32 4]["aaaa"][double
    // 1.0] little-endian records. Such a file must fail loudly with
    // the fix by name — never silently recompute, and never point at
    // an upgrade or a flag that no longer exists.
    const auto dir = scratchDir("pluto_campaign_retired_bin_test");
    fs::create_directories(dir);
    const char record[] = "\x10\x00\x00\x00\xf8\x68\xe1\x6d"
                          "\x04\x00\x00\x00" "aaaa"
                          "\x00\x00\x00\x00\x00\x00\xf0\x3f";
    {
        std::ofstream out(dir + "/old.tiny.cache.jsonl",
                          std::ios::binary);
        out << "{\"cacheFormat\":3,\"kind\":\"tiny\","
               "\"encoding\":\"binary\"}\n";
        out.write(record, sizeof(record) - 1);
    }
    TinyCache cache(dir, "old");
    const std::string err = cache.load();
    EXPECT_NE(err.find("binary cache"), std::string::npos) << err;
    EXPECT_NE(err.find("no longer reads"), std::string::npos) << err;
    EXPECT_NE(err.find("delete the file"), std::string::npos) << err;
    EXPECT_EQ(err.find("upgrade"), std::string::npos) << err;
    EXPECT_EQ(err.find("--"), std::string::npos) << err;
    EXPECT_EQ(cache.entries(), 0u);
    fs::remove_all(dir);
}

TEST(JsonlCacheFormat, ModeCodecsRoundTripEveryFieldExactly)
{
    const auto dir = scratchDir("pluto_campaign_codec_test");

    sim::RunOutcome run;
    run.elements = 123456789ull;
    run.timeNs = 1.0 / 3.0;
    run.energyPj = 2.5e300;
    run.hostNs = 5e-324; // denormal min
    run.verified = true;
    run.wallMs = 0.1;
    sim::RunCache simc(dir, "scn");
    ASSERT_TRUE(simc.append("k1", run).empty());

    serve::ServiceOutcome svc;
    svc.requests = 42;
    svc.batches = 7;
    svc.meanBatch = 6.0;
    svc.p999Ms = 1.0 / 7.0;
    svc.verified = true;
    svc.tenants.push_back({});
    svc.tenants.back().tenant = 3;
    svc.tenants.back().requests = 21;
    svc.tenants.back().p95Ms = 2.0 / 3.0;
    serve::ServiceCache servec(dir, "scn");
    ASSERT_TRUE(servec.append("k2", svc).empty());

    nn::NnOutcome nnOut;
    nnOut.images = 9;
    nnOut.macs = 4294967297ull; // above u32
    nnOut.timeNs = 2.0 / 3.0;
    nnOut.energyPj = -0.0;
    nnOut.accuracy = 5e-324;
    nnOut.verified = true;
    nnOut.wallMs = 2.5e300;
    nn::NnCache nnc(dir, "scn");
    ASSERT_TRUE(nnc.append("k3", nnOut).empty());

    sim::RunCache simr(dir, "scn");
    ASSERT_TRUE(simr.load().empty());
    const auto r = simr.lookup("k1");
    ASSERT_TRUE(r);
    EXPECT_EQ(r->elements, run.elements);
    EXPECT_EQ(r->timeNs, run.timeNs);
    EXPECT_EQ(r->energyPj, run.energyPj);
    EXPECT_EQ(r->hostNs, run.hostNs);
    EXPECT_EQ(r->verified, run.verified);
    EXPECT_EQ(r->wallMs, run.wallMs);

    serve::ServiceCache server(dir, "scn");
    ASSERT_TRUE(server.load().empty());
    const auto s = server.lookup("k2");
    ASSERT_TRUE(s);
    EXPECT_EQ(s->requests, svc.requests);
    EXPECT_EQ(s->batches, svc.batches);
    EXPECT_EQ(s->meanBatch, svc.meanBatch);
    EXPECT_EQ(s->p999Ms, svc.p999Ms);
    ASSERT_EQ(s->tenants.size(), 1u);
    EXPECT_EQ(s->tenants[0].tenant, 3u);
    EXPECT_EQ(s->tenants[0].requests, 21u);
    EXPECT_EQ(s->tenants[0].p95Ms, svc.tenants[0].p95Ms);

    nn::NnCache nnr(dir, "scn");
    ASSERT_TRUE(nnr.load().empty());
    EXPECT_EQ(nnr.corruptLines(), 0u);
    const auto n = nnr.lookup("k3");
    ASSERT_TRUE(n);
    EXPECT_EQ(n->images, nnOut.images);
    EXPECT_EQ(n->macs, nnOut.macs);
    EXPECT_EQ(n->timeNs, nnOut.timeNs);
    EXPECT_TRUE(std::signbit(n->energyPj));
    EXPECT_EQ(n->energyPj, 0.0);
    EXPECT_EQ(n->accuracy, nnOut.accuracy);
    EXPECT_EQ(n->verified, nnOut.verified);
    EXPECT_EQ(n->wallMs, nnOut.wallMs);
    fs::remove_all(dir);
}

// ---- Per-mode key namespacing ----

TEST(CacheNamespacing, EqualDescriptorsCannotCollideAcrossModes)
{
    // The same descriptor string keys different content per mode:
    // a batch cell and a service cell that coincidentally describe
    // themselves identically must hash to different keys, so a
    // shared --cache-dir can never replay one as the other.
    const std::string descriptor = "v1|identical-descriptor";
    const auto simKey = sim::RunCache::keyFor(descriptor);
    const auto serveKey = serve::ServiceCache::keyFor(descriptor);
    const auto nnKey = nn::NnCache::keyFor(descriptor);
    EXPECT_NE(simKey, serveKey);
    EXPECT_NE(simKey, nnKey);
    EXPECT_NE(serveKey, nnKey);

    // And even with equal keys, the modes' files are disjoint in a
    // shared directory.
    const auto dir = scratchDir("pluto_campaign_ns_test");
    sim::RunCache simCache(dir, "scn");
    serve::ServiceCache serveCache(dir, "scn");
    nn::NnCache nnCache(dir, "scn");
    EXPECT_NE(simCache.path(), serveCache.path());
    EXPECT_NE(simCache.path(), nnCache.path());
    EXPECT_NE(serveCache.path(), nnCache.path());

    // Concretely: store a batch outcome under simKey; the service
    // and nn caches in the same directory must not see anything.
    sim::RunOutcome run;
    run.elements = 7;
    run.timeNs = 1.0 / 3.0;
    ASSERT_TRUE(simCache.append(simKey, run).empty());
    EXPECT_TRUE(serveCache.load().empty());
    EXPECT_TRUE(nnCache.load().empty());
    EXPECT_EQ(serveCache.entries(), 0u);
    EXPECT_EQ(nnCache.entries(), 0u);
    EXPECT_FALSE(serveCache.lookup(simKey));
    EXPECT_FALSE(nnCache.lookup(simKey));
    fs::remove_all(dir);
}

// ---- The NN mode inherits the campaign discipline ----

/** Small 2-variant x 4-cell nn scenario. */
sim::SimConfig
nnScenario()
{
    std::string err;
    const auto cfg = sim::SimConfig::parse(R"(
[scenario]
name = nn_unit
[variant bsa]
design = bsa
[variant gsa]
design = gsa
[nn lenet]
sweep bits = 1, 4
images = 2
)",
                                           err);
    EXPECT_TRUE(cfg) << err;
    return *cfg;
}

TEST(NnCampaign, ShardedRunOutcomesEqualColdRunByteForByte)
{
    const auto cfg = nnScenario();
    const auto dir = scratchDir("pluto_campaign_nn_test");
    const nn::NnRunner runner(cfg);

    RunOptions opt;
    opt.threads = 2;
    opt.deterministic = true;
    const auto cold = runner.run(opt);
    ASSERT_EQ(cold.runs.size(), 4u);
    EXPECT_TRUE(cold.allVerified());
    EXPECT_EQ(cold.cacheHits, 0u);

    // Three shards over a shared cache partition the grid...
    opt.cacheDir = dir;
    std::size_t shardRuns = 0;
    for (u32 i = 0; i < 3; ++i) {
        opt.shardIndex = i;
        opt.shardCount = 3;
        shardRuns += runner.run(opt).runs.size();
    }
    EXPECT_EQ(shardRuns, cold.runs.size());

    // ...and the merge pass replays every cell, emitting the same
    // bytes as the cold run.
    opt.shardIndex = 0;
    opt.shardCount = 1;
    const auto merged = runner.run(opt);
    EXPECT_EQ(merged.cacheHits, merged.runs.size());
    EXPECT_EQ(nn::NnMetricsSink::renderCsv(cfg, merged),
              nn::NnMetricsSink::renderCsv(cfg, cold));
    EXPECT_EQ(nn::NnMetricsSink::renderJson(cfg, merged),
              nn::NnMetricsSink::renderJson(cfg, cold));

    // Thread-count independence of the emitted bytes.
    RunOptions one;
    one.threads = 1;
    one.deterministic = true;
    const auto serial = runner.run(one);
    EXPECT_EQ(nn::NnMetricsSink::renderCsv(cfg, serial),
              nn::NnMetricsSink::renderCsv(cfg, cold));
    fs::remove_all(dir);
}

// ---- The service mode inherits the campaign discipline ----

/** Small 2-variant x 3-cell service scenario. */
sim::SimConfig
serviceScenario()
{
    std::string err;
    const auto cfg = sim::SimConfig::parse(R"(
[scenario]
name = serve_unit
[variant gmc]
design = gmc
[variant gsa]
design = gsa
[workload CRC-8]
elements = 1024
[service s]
duration_ms = 0.5
devices = 2
sweep rate = 5000, 20000, 80000
)",
                                           err);
    EXPECT_TRUE(cfg) << err;
    return *cfg;
}

TEST(ServeCampaign, ShardedCachedRunsEqualColdRunByteForByte)
{
    using serve::ServiceMetricsSink;
    const auto cfg = serviceScenario();
    const auto dir = scratchDir("pluto_campaign_serve_test");
    const serve::ServiceRunner runner(cfg);

    RunOptions opt;
    opt.threads = 2;
    opt.deterministic = true;
    const auto cold = runner.run(opt);
    ASSERT_EQ(cold.runs.size(), 6u);
    EXPECT_TRUE(cold.allVerified());
    EXPECT_EQ(cold.cacheHits, 0u);

    opt.cacheDir = dir;
    std::size_t shardRuns = 0;
    for (u32 i = 0; i < 3; ++i) {
        opt.shardIndex = i;
        opt.shardCount = 3;
        const auto shard = runner.run(opt);
        EXPECT_EQ(shard.cacheHits, 0u);
        shardRuns += shard.runs.size();
    }
    EXPECT_EQ(shardRuns, cold.runs.size());

    opt.shardIndex = 0;
    opt.shardCount = 1;
    const auto merged = runner.run(opt);
    EXPECT_EQ(merged.cacheHits, merged.runs.size());
    EXPECT_EQ(merged.cacheMisses, 0u);
    EXPECT_EQ(ServiceMetricsSink::renderCsv(cfg, merged.runs),
              ServiceMetricsSink::renderCsv(cfg, cold.runs));
    EXPECT_EQ(
        ServiceMetricsSink::renderJson(cfg, merged.runs, merged.wallMs),
        ServiceMetricsSink::renderJson(cfg, cold.runs, cold.wallMs));
    EXPECT_EQ(ServiceMetricsSink::renderTailReport(cfg, merged.runs),
              ServiceMetricsSink::renderTailReport(cfg, cold.runs));
    EXPECT_EQ(ServiceMetricsSink::renderTimeseriesCsv(cfg, merged.runs),
              ServiceMetricsSink::renderTimeseriesCsv(cfg, cold.runs));
    fs::remove_all(dir);
}

// ---- The wall rule, per mode ----

/**
 * Sim and nn outcomes store the wall of the cell that computed them
 * and replay it, or 0 under --deterministic; a fresh cell stores 0
 * under --deterministic.
 */
template <typename Runner>
void
expectStoredWallReplays(const sim::SimConfig &cfg,
                        const std::string &name)
{
    const Runner runner(cfg);
    const auto dir = scratchDir(name);
    RunOptions opt;
    opt.threads = 1;
    opt.cacheDir = dir;
    const auto cold = runner.run(opt);
    ASSERT_FALSE(cold.runs.empty());
    bool timed = false;
    for (const auto &r : cold.runs)
        timed = timed || r.out.wallMs > 0.0;
    EXPECT_TRUE(timed);

    const auto warm = runner.run(opt);
    ASSERT_EQ(warm.runs.size(), cold.runs.size());
    EXPECT_EQ(warm.cacheHits, warm.runs.size());
    for (std::size_t i = 0; i < warm.runs.size(); ++i) {
        EXPECT_TRUE(warm.runs[i].fromCache);
        EXPECT_EQ(warm.runs[i].out.wallMs, cold.runs[i].out.wallMs);
    }

    opt.deterministic = true;
    for (const auto &r : runner.run(opt).runs) {
        EXPECT_TRUE(r.fromCache);
        EXPECT_EQ(r.out.wallMs, 0.0);
    }

    const auto detDir = scratchDir(name + "_det");
    opt.cacheDir = detDir;
    for (const auto &r : runner.run(opt).runs)
        EXPECT_EQ(r.out.wallMs, 0.0);
    opt.deterministic = false;
    for (const auto &r : runner.run(opt).runs) {
        EXPECT_TRUE(r.fromCache);
        EXPECT_EQ(r.out.wallMs, 0.0);
    }
    fs::remove_all(dir);
    fs::remove_all(detDir);
}

TEST(WallRule, SimReplaysTheStoredWallOrZeroWhenDeterministic)
{
    std::string err;
    const auto cfg = sim::SimConfig::parse(R"(
[scenario]
name = wall_sim
[device]
design = gmc
[workload ADD4]
elements = 4096
repeats = 2
)",
                                           err);
    ASSERT_TRUE(cfg) << err;
    expectStoredWallReplays<sim::ScenarioRunner>(
        *cfg, "pluto_campaign_wall_sim_test");
}

TEST(WallRule, NnReplaysTheStoredWallOrZeroWhenDeterministic)
{
    expectStoredWallReplays<nn::NnRunner>(
        nnScenario(), "pluto_campaign_wall_nn_test");
}

TEST(WallRule, ServeCachesNoWallAndReplaysLoopHostMsAsZero)
{
    const auto cfg = serviceScenario();
    const auto dir = scratchDir("pluto_campaign_wall_serve_test");
    const serve::ServiceRunner runner(cfg);
    RunOptions opt;
    opt.threads = 1;
    opt.cacheDir = dir;
    bool timed = false;
    for (const auto &r : runner.run(opt).runs)
        timed = timed || r.out.loopHostMs > 0.0;
    EXPECT_TRUE(timed);

    for (const bool deterministic : {false, true}) {
        opt.deterministic = deterministic;
        for (const auto &r : runner.run(opt).runs) {
            EXPECT_TRUE(r.fromCache);
            EXPECT_EQ(r.out.loopHostMs, 0.0) << deterministic;
        }
    }
    fs::remove_all(dir);
}

TEST(NnCampaign, ConfigParsesAndExpandsNnGrids)
{
    const auto cfg = nnScenario();
    ASSERT_EQ(cfg.nnCells.size(), 2u);
    EXPECT_EQ(cfg.nnCells[0].name, "lenet/bits=1");
    EXPECT_EQ(cfg.nnCells[0].bits, 1u);
    EXPECT_EQ(cfg.nnCells[1].name, "lenet/bits=4");
    EXPECT_EQ(cfg.nnCells[1].bits, 4u);
    EXPECT_EQ(cfg.nnCells[0].images, 2u);
    EXPECT_EQ(cfg.totalNnRuns(), 4u);

    // Bad keys fail with diagnostics, like every other section.
    std::string err;
    EXPECT_FALSE(
        sim::SimConfig::parse("[nn x]\nbits = 3\n", err));
    EXPECT_NE(err.find("bad bits"), std::string::npos) << err;
    EXPECT_FALSE(
        sim::SimConfig::parse("[nn x]\nwibble = 1\n", err));
    EXPECT_NE(err.find("unknown nn key"), std::string::npos) << err;

    // nn-only scenarios are legal; empty scenarios are not.
    EXPECT_TRUE(sim::SimConfig::parse("[nn x]\nbits = 1\n", err));
    EXPECT_FALSE(sim::SimConfig::parse("[scenario]\nname = x\n", err));
    EXPECT_NE(err.find("[workload] or [nn]"), std::string::npos)
        << err;
}

} // namespace
} // namespace pluto::campaign
