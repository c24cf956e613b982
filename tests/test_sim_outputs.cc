/**
 * @file
 * Scenario-engine output and campaign-execution tests: JSON/CSV
 * schema validation with per-cell aggregates recomputed from the raw
 * CSV rows, the JSONL run cache (hit/miss accounting, resumability,
 * corrupt-line tolerance), and the headline v2 equivalence — a grid
 * scenario executed as three cached shards plus a merge pass emits
 * byte-identical files to a cold unsharded run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/emit.hh"
#include "sim/cache.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"

namespace pluto::sim
{
namespace
{

namespace fs = std::filesystem;

/** A small grid scenario: 2 expanded variants x 3 workload cells. */
SimConfig
gridScenario()
{
    std::string err;
    const auto cfg = SimConfig::parse(R"(
[scenario]
name = outputs
repeats = 2
[variant v]
sweep design = bsa, gmc
[workload ADD4]
sweep elements = 8192, 16384
[workload Bitwise-AND]
elements = 32768
)",
                                      err);
    EXPECT_TRUE(cfg) << err;
    return *cfg;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Split one CSV line (our cells never contain quoted commas). */
std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream in(line);
    while (std::getline(in, cell, ','))
        cells.push_back(cell);
    return cells;
}

TEST(SimOutputs, JsonSchemaMatchesCsvRecomputation)
{
    const auto cfg = gridScenario();
    RunOptions opt;
    opt.threads = 4;
    opt.deterministic = true;
    const auto report = ScenarioRunner(cfg).run(opt);
    ASSERT_EQ(report.runs.size(), cfg.totalRuns());

    // ---- CSV: header and per-row column count ----
    const std::string csv = MetricsSink::renderCsv(cfg, report);
    std::istringstream in(csv);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    const auto columns = MetricsSink::csvColumns();
    ASSERT_EQ(splitCsv(header), columns);

    std::map<std::string, std::size_t> col;
    for (std::size_t i = 0; i < columns.size(); ++i)
        col[columns[i]] = i;

    // Recompute per-cell aggregates from the raw rows.
    struct Cell
    {
        double timeSum = 0.0;
        double energySum = 0.0;
        u64 rows = 0;
    };
    std::map<std::string, Cell> cells;
    std::string line;
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        ++rows;
        const auto cell = splitCsv(line);
        ASSERT_EQ(cell.size(), columns.size()) << line;
        EXPECT_EQ(cell[col["scenario"]], "outputs");
        const std::string key = cell[col["variant"]] + "|" +
                                cell[col["workload"]] + "|" +
                                cell[col["elements"]] + "|" +
                                cell[col["seed"]];
        Cell &c = cells[key];
        c.timeSum += std::stod(cell[col["time_ns"]]);
        c.energySum += std::stod(cell[col["energy_pj"]]);
        ++c.rows;
    }
    EXPECT_EQ(rows, report.runs.size());

    // ---- JSON: required keys, then cell-by-cell comparison ----
    std::string jerr;
    const auto doc =
        JsonValue::parse(MetricsSink::renderJson(cfg, report), jerr);
    ASSERT_TRUE(doc) << jerr;
    ASSERT_TRUE(doc->isObject());
    for (const char *key :
         {"scenario", "total_runs", "all_verified", "wall_ms",
          "results", "variants"})
        EXPECT_NE(doc->find(key), nullptr) << key;
    EXPECT_EQ(doc->find("scenario")->asString(), "outputs");
    EXPECT_EQ(doc->find("total_runs")->asNumber(),
              static_cast<double>(report.runs.size()));
    EXPECT_TRUE(doc->find("all_verified")->asBool());

    const JsonValue *results = doc->find("results");
    ASSERT_TRUE(results && results->isArray());
    EXPECT_EQ(results->size(), cells.size());
    for (std::size_t i = 0; i < results->size(); ++i) {
        const JsonValue &row = results->at(i);
        for (const char *key :
             {"variant", "workload", "runs", "elements", "seed",
              "verified", "mean_time_ns", "ns_per_elem",
              "mean_energy_pj", "pj_per_elem", "speedup"})
            ASSERT_NE(row.find(key), nullptr) << key;

        char elems[32], seed[32];
        std::snprintf(elems, sizeof(elems), "%.0f",
                      row.find("elements")->asNumber());
        std::snprintf(seed, sizeof(seed), "%.0f",
                      row.find("seed")->asNumber());
        const std::string key = row.find("variant")->asString() +
                                "|" +
                                row.find("workload")->asString() +
                                "|" + elems + "|" + seed;
        ASSERT_TRUE(cells.count(key)) << key;
        const Cell &c = cells.at(key);
        EXPECT_EQ(row.find("runs")->asNumber(),
                  static_cast<double>(c.rows));

        // CSV rows carry %.6f-rounded values; the recomputed means
        // must match the JSON aggregates to that precision.
        const double meanTime = c.timeSum / c.rows;
        const double meanEnergy = c.energySum / c.rows;
        EXPECT_NEAR(row.find("mean_time_ns")->asNumber(), meanTime,
                    1e-5 + 1e-9 * std::fabs(meanTime))
            << key;
        EXPECT_NEAR(row.find("mean_energy_pj")->asNumber(),
                    meanEnergy, 1e-5 + 1e-9 * std::fabs(meanEnergy))
            << key;
        const double elements = row.find("elements")->asNumber();
        EXPECT_NEAR(row.find("ns_per_elem")->asNumber(),
                    meanTime / elements,
                    1e-9 + 1e-9 * meanTime / elements)
            << key;

        const JsonValue *sp = row.find("speedup");
        ASSERT_TRUE(sp && sp->isObject());
        for (const char *sys : {"cpu", "gpu", "fpga", "pnm"})
            EXPECT_NE(sp->find(sys), nullptr) << sys;
    }

    const JsonValue *variants = doc->find("variants");
    ASSERT_TRUE(variants && variants->isArray());
    EXPECT_EQ(variants->size(), cfg.devices.size());
    for (std::size_t i = 0; i < variants->size(); ++i)
        EXPECT_NE(variants->at(i).find("geomean_speedup_cpu"),
                  nullptr);
}

TEST(SimOutputs, CacheResumesAndTossesCorruptLines)
{
    const auto cfg = gridScenario();
    const std::string dir =
        (fs::temp_directory_path() / "pluto_sim_cache_gtest")
            .string();
    fs::remove_all(dir);

    RunOptions opt;
    opt.threads = 4;
    opt.cacheDir = dir;
    opt.deterministic = true;

    const ScenarioRunner runner(cfg);
    const auto cold = runner.run(opt);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, cold.runs.size());
    for (const auto &r : cold.runs)
        EXPECT_FALSE(r.fromCache);

    // Simulate an interrupted append (torn line) plus stray noise:
    // both must be skipped, not fatal.
    RunCache cache(dir, cfg.name);
    cache.load();
    const auto entries = cache.entries();
    EXPECT_EQ(entries, cold.runs.size());
    {
        std::ofstream out(cache.path(),
                          std::ios::binary | std::ios::app);
        out << "{\"key\":\"deadbeef\",\"time_ns\":12.\n";
        out << "not json at all\n";
        // Overflowed number literal: must not replay as infinity.
        out << "{\"key\":\"deadbeef\",\"elements\":1,\"time_ns\":"
               "1e999,\"energy_pj\":0,\"host_ns\":0,\"verified\":"
               "true,\"wall_ms\":0}\n";
    }
    RunCache reread(dir, cfg.name);
    reread.load();
    EXPECT_EQ(reread.entries(), entries);
    EXPECT_EQ(reread.corruptLines(), 3u);

    // Warm rerun: everything replays, bit-identically.
    const auto warm = runner.run(opt);
    EXPECT_EQ(warm.cacheHits, warm.runs.size());
    EXPECT_EQ(warm.cacheMisses, 0u);
    ASSERT_EQ(warm.runs.size(), cold.runs.size());
    for (std::size_t i = 0; i < warm.runs.size(); ++i) {
        EXPECT_TRUE(warm.runs[i].fromCache);
        EXPECT_EQ(warm.runs[i].out.timeNs,
                  cold.runs[i].out.timeNs)
            << i;
        EXPECT_EQ(warm.runs[i].out.energyPj,
                  cold.runs[i].out.energyPj)
            << i;
        EXPECT_EQ(warm.runs[i].out.verified,
                  cold.runs[i].out.verified)
            << i;
    }
    fs::remove_all(dir);
}

TEST(SimOutputs, ShardedCachedCampaignIsByteIdenticalToColdRun)
{
    auto cfg = gridScenario();
    const std::string root =
        (fs::temp_directory_path() / "pluto_sim_shard_gtest")
            .string();
    fs::remove_all(root);
    const ScenarioRunner runner(cfg);

    // Cold unsharded reference files.
    cfg.outDir = root + "/cold";
    RunOptions opt;
    opt.threads = 2;
    opt.deterministic = true;
    std::vector<std::string> coldFiles;
    ASSERT_EQ(MetricsSink::write(cfg, runner.run(opt), coldFiles),
              "");

    // Three shards populate a shared cache. Shard reports must
    // partition the run index space.
    opt.cacheDir = root + "/cache";
    std::size_t shardRuns = 0;
    for (u32 i = 0; i < 3; ++i) {
        opt.shardIndex = i;
        opt.shardCount = 3;
        const auto part = runner.run(opt);
        EXPECT_EQ(part.cacheHits, 0u);
        shardRuns += part.runs.size();
    }
    EXPECT_EQ(shardRuns, cfg.totalRuns());

    // Merge pass: unsharded over the warm cache — all hits, and the
    // emitted files match the cold run byte for byte.
    opt.shardIndex = 0;
    opt.shardCount = 1;
    const auto merged = runner.run(opt);
    EXPECT_EQ(merged.cacheHits, merged.runs.size());
    EXPECT_EQ(merged.cacheMisses, 0u);

    cfg.outDir = root + "/merged";
    std::vector<std::string> mergedFiles;
    ASSERT_EQ(MetricsSink::write(cfg, merged, mergedFiles), "");
    ASSERT_EQ(coldFiles.size(), mergedFiles.size());
    for (std::size_t i = 0; i < coldFiles.size(); ++i)
        EXPECT_EQ(readFile(mergedFiles[i]), readFile(coldFiles[i]))
            << coldFiles[i];
    fs::remove_all(root);
}

TEST(SimOutputs, SeedChangesInputsNotSchema)
{
    // Two runs of one workload differing only in seed must both
    // verify (different data through the same kernel).
    std::string err;
    const auto cfg = SimConfig::parse(R"(
[scenario]
name = seeds
[workload CRC-8]
elements = 16384
sweep seed = 0, 3
)",
                                      err);
    ASSERT_TRUE(cfg) << err;
    RunOptions opt;
    opt.threads = 1;
    const auto report = ScenarioRunner(*cfg).run(opt);
    ASSERT_EQ(report.runs.size(), 2u);
    EXPECT_TRUE(report.allVerified());
    EXPECT_EQ(report.runs[0].seed, 0u);
    EXPECT_EQ(report.runs[1].seed, 3u);
    // Identical command-level cost: timing is data-independent.
    EXPECT_EQ(report.runs[0].out.timeNs,
              report.runs[1].out.timeNs);
}

} // namespace
} // namespace pluto::sim
