/**
 * @file
 * Scenario engine tests: config parse round-trip and malformed-input
 * rejection, deterministic batch execution across repeats and thread
 * counts, CSV/JSON output schema, and the registry lookup API.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/emit.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"
#include "workloads/workload.hh"

#ifndef PLUTO_SOURCE_DIR
#define PLUTO_SOURCE_DIR "."
#endif

namespace pluto::sim
{
namespace
{

const char *kFullScenario = R"(
# full-feature scenario
[scenario]
name = unit        ; trailing comment
out_dir = /tmp/pluto_sim_unit
repeats = 2

[device]
memory = 3ds
design = gsa
salp = 8
faw = 0.5
refresh = on
load_method = storage

[variant fast]
design = gmc
memory = ddr4

[variant slow]

[workload ADD4]
elements = 65536

[workload Bitwise-AND]
elements = 131072
repeats = 3
)";

TEST(SimConfig, ParsesFullScenario)
{
    std::string err;
    const auto cfg = SimConfig::parse(kFullScenario, err);
    ASSERT_TRUE(cfg) << err;
    EXPECT_EQ(cfg->name, "unit");
    EXPECT_EQ(cfg->outDir, "/tmp/pluto_sim_unit");
    EXPECT_EQ(cfg->repeats, 2u);

    ASSERT_EQ(cfg->devices.size(), 2u);
    // "fast" overrides design/memory but inherits the rest.
    EXPECT_EQ(cfg->devices[0].name, "fast");
    EXPECT_EQ(cfg->devices[0].config.design, core::Design::Gmc);
    EXPECT_EQ(cfg->devices[0].config.memory, dram::MemoryKind::Ddr4);
    EXPECT_EQ(cfg->devices[0].config.salp, 8u);
    EXPECT_DOUBLE_EQ(cfg->devices[0].config.fawScale, 0.5);
    EXPECT_TRUE(cfg->devices[0].config.modelRefresh);
    EXPECT_EQ(cfg->devices[0].config.loadMethod,
              core::LutLoadMethod::FromStorage);
    // "slow" is the pure [device] defaults.
    EXPECT_EQ(cfg->devices[1].name, "slow");
    EXPECT_EQ(cfg->devices[1].config.design, core::Design::Gsa);
    EXPECT_EQ(cfg->devices[1].config.memory,
              dram::MemoryKind::Hmc3ds);

    ASSERT_EQ(cfg->workloads.size(), 2u);
    EXPECT_EQ(cfg->workloads[0].name, "ADD4");
    EXPECT_EQ(cfg->workloads[0].elements, 65536u);
    EXPECT_EQ(cfg->workloads[0].repeats, 1u);
    EXPECT_EQ(cfg->workloads[1].name, "Bitwise-AND");
    EXPECT_EQ(cfg->workloads[1].repeats, 3u);

    // 2 variants x (1 + 3 repeats) x 2 global repeats.
    EXPECT_EQ(cfg->totalRuns(), 16u);
}

TEST(SimConfig, DefaultVariantWhenNoneDeclared)
{
    std::string err;
    const auto cfg = SimConfig::parse(
        "[device]\ndesign = gmc\n[workload ADD4]\n", err);
    ASSERT_TRUE(cfg) << err;
    ASSERT_EQ(cfg->devices.size(), 1u);
    EXPECT_EQ(cfg->devices[0].name, "default");
    EXPECT_EQ(cfg->devices[0].config.design, core::Design::Gmc);
}

TEST(SimConfig, ExpandsParameterGrids)
{
    std::string err;
    const auto cfg = SimConfig::parse(R"(
[device]
memory = ddr4
sweep faw = 0.0, 0.5
[variant a]
sweep design = bsa, gmc
[variant b]
faw = 1.0            ; overrides the inherited faw sweep
[workload ADD4]
sweep elements = 1024, 2048
sweep seed = 0, 9
[workload Bitwise-AND]
elements = 4096
)",
                                      err);
    ASSERT_TRUE(cfg) << err;

    // Variant a: faw x design = 4 combos; variant b: faw overridden
    // plainly, so it stays a single device.
    ASSERT_EQ(cfg->devices.size(), 5u);
    EXPECT_EQ(cfg->devices[0].name, "a/faw=0.0/design=bsa");
    EXPECT_EQ(cfg->devices[1].name, "a/faw=0.0/design=gmc");
    EXPECT_EQ(cfg->devices[2].name, "a/faw=0.5/design=bsa");
    EXPECT_EQ(cfg->devices[3].name, "a/faw=0.5/design=gmc");
    EXPECT_EQ(cfg->devices[4].name, "b");
    EXPECT_DOUBLE_EQ(cfg->devices[1].config.fawScale, 0.0);
    EXPECT_EQ(cfg->devices[1].config.design, core::Design::Gmc);
    EXPECT_DOUBLE_EQ(cfg->devices[3].config.fawScale, 0.5);
    EXPECT_DOUBLE_EQ(cfg->devices[4].config.fawScale, 1.0);

    // Workload grid: elements x seed = 4 entries, plus the plain one.
    ASSERT_EQ(cfg->workloads.size(), 5u);
    EXPECT_EQ(cfg->workloads[0].elements, 1024u);
    EXPECT_EQ(cfg->workloads[0].seed, 0u);
    EXPECT_EQ(cfg->workloads[1].elements, 1024u);
    EXPECT_EQ(cfg->workloads[1].seed, 9u);
    EXPECT_EQ(cfg->workloads[2].elements, 2048u);
    EXPECT_EQ(cfg->workloads[3].seed, 9u);
    EXPECT_EQ(cfg->workloads[4].name, "Bitwise-AND");
    EXPECT_EQ(cfg->workloads[4].elements, 4096u);

    EXPECT_EQ(cfg->totalRuns(), 5u * 5u);
}

TEST(SimConfig, SingleValueSweepAndImplicitDefaultVariant)
{
    std::string err;
    const auto cfg = SimConfig::parse(
        "[device]\nsweep salp = 4\n[workload ADD4]\n", err);
    ASSERT_TRUE(cfg) << err;
    ASSERT_EQ(cfg->devices.size(), 1u);
    EXPECT_EQ(cfg->devices[0].name, "default/salp=4");
    EXPECT_EQ(cfg->devices[0].config.salp, 4u);
}

TEST(SimConfig, ParsesServiceSections)
{
    std::string err;
    const auto cfg = SimConfig::parse(R"(
[workload ColorGrade]
elements = 4096
tenant = 2
weight = 0.5
[service sat]
mode = open
arrivals = uniform
rate = 2500.5
duration_ms = 75
policy = window
batch = 12
window_ms = 0.25
devices = 3
lanes = 32
seed = 9
memo = verify
[service cl]
mode = closed
clients = 24
think_ms = 1.5
policy = fixed
memo = off
)",
                                      err);
    ASSERT_TRUE(cfg) << err;
    ASSERT_EQ(cfg->workloads.size(), 1u);
    EXPECT_EQ(cfg->workloads[0].tenant, 2u);
    EXPECT_DOUBLE_EQ(cfg->workloads[0].weight, 0.5);

    ASSERT_EQ(cfg->services.size(), 2u);
    const ServiceSpec &sat = cfg->services[0];
    EXPECT_EQ(sat.name, "sat");
    EXPECT_FALSE(sat.closedLoop);
    EXPECT_TRUE(sat.uniformArrivals);
    EXPECT_DOUBLE_EQ(sat.ratePerSec, 2500.5);
    EXPECT_DOUBLE_EQ(sat.durationMs, 75.0);
    EXPECT_EQ(sat.policy, BatchPolicyKind::TimeWindow);
    EXPECT_EQ(sat.batch, 12u);
    EXPECT_DOUBLE_EQ(sat.windowMs, 0.25);
    EXPECT_EQ(sat.devices, 3u);
    EXPECT_EQ(sat.lanes, 32u);
    EXPECT_EQ(sat.seed, 9u);
    EXPECT_EQ(sat.memo, MemoMode::Verify);
    const ServiceSpec &cl = cfg->services[1];
    EXPECT_TRUE(cl.closedLoop);
    EXPECT_EQ(cl.clients, 24u);
    EXPECT_DOUBLE_EQ(cl.thinkMs, 1.5);
    EXPECT_EQ(cl.policy, BatchPolicyKind::FixedSize);
    EXPECT_EQ(cl.memo, MemoMode::Off);

    // 1 implicit variant x 2 services.
    EXPECT_EQ(cfg->totalServiceRuns(), 2u);
}

TEST(SimConfig, ExpandsServiceSweeps)
{
    std::string err;
    const auto cfg = SimConfig::parse(R"(
[workload ADD4]
[service sat]
sweep rate = 1000, 2000, 4000
sweep policy = immediate, adaptive
)",
                                      err);
    ASSERT_TRUE(cfg) << err;
    ASSERT_EQ(cfg->services.size(), 6u);
    EXPECT_EQ(cfg->services[0].name,
              "sat/rate=1000/policy=immediate");
    EXPECT_EQ(cfg->services[1].name,
              "sat/rate=1000/policy=adaptive");
    EXPECT_EQ(cfg->services[4].name,
              "sat/rate=4000/policy=immediate");
    EXPECT_DOUBLE_EQ(cfg->services[4].ratePerSec, 4000.0);
    EXPECT_EQ(cfg->services[1].policy, BatchPolicyKind::Adaptive);
    EXPECT_EQ(cfg->totalServiceRuns(), 6u);
}

TEST(SimConfig, UnknownWorkloadErrorListsAvailableNames)
{
    std::string err;
    EXPECT_FALSE(SimConfig::parse("[workload Nope]\n", err));
    EXPECT_NE(err.find("available:"), std::string::npos) << err;
    EXPECT_NE(err.find("CRC-8"), std::string::npos) << err;
    EXPECT_NE(err.find("Bitwise-XOR"), std::string::npos) << err;
}

struct BadCase
{
    const char *text;
    const char *expect; // substring of the diagnostic
};

class SimConfigRejects : public ::testing::TestWithParam<BadCase>
{
};

TEST_P(SimConfigRejects, WithDiagnostic)
{
    std::string err;
    const auto cfg = SimConfig::parse(GetParam().text, err);
    EXPECT_FALSE(cfg);
    EXPECT_NE(err.find(GetParam().expect), std::string::npos)
        << "got: " << err;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SimConfigRejects,
    ::testing::Values(
        BadCase{"[workload NoSuchThing]\n", "unknown workload"},
        BadCase{"[bogus]\n[workload ADD4]\n", "unknown section"},
        BadCase{"[scenario]\nflavor = mint\n[workload ADD4]\n",
                "unknown scenario key"},
        BadCase{"[device]\ndesign = tpu\n[workload ADD4]\n",
                "bad design"},
        BadCase{"[device]\nfaw = 1.5\n[workload ADD4]\n", "bad faw"},
        BadCase{"[device]\nsalp = many\n[workload ADD4]\n",
                "bad salp"},
        BadCase{"[workload ADD4]\nelements = 0\n", "bad elements"},
        BadCase{"[workload ADD4]\nelements = -1\n", "bad elements"},
        BadCase{"[workload ADD4]\nelements = 99999999999999999999\n",
                "bad elements"},
        BadCase{"[device]\nfaw = nan\n[workload ADD4]\n", "bad faw"},
        BadCase{"stray = value\n[workload ADD4]\n",
                "outside any section"},
        BadCase{"[scenario\n[workload ADD4]\n", "unterminated"},
        BadCase{"[variant]\n[workload ADD4]\n", "needs a name"},
        BadCase{"[variant a]\n[variant a]\n[workload ADD4]\n",
                "duplicate variant"},
        BadCase{"[variant a]\n[device]\n[workload ADD4]\n",
                "must precede"},
        BadCase{"[scenario]\nname\n[workload ADD4]\n",
                "expected 'key = value'"},
        BadCase{"", "no [workload]"},
        // v2 grid syntax.
        BadCase{"[variant a]\nsweep = 1, 2\n[workload ADD4]\n",
                "sweep needs a key"},
        BadCase{"[variant a]\nsweep faw =\n[workload ADD4]\n",
                "empty value"},
        BadCase{"[variant a]\nsweep faw = 0.1,,0.5\n"
                "[workload ADD4]\n",
                "empty value in sweep list"},
        BadCase{"[variant a]\nsweep faw = 0.1, 2.0\n"
                "[workload ADD4]\n",
                "bad faw"},
        BadCase{"[variant a]\nsweep faw = 0.1\nsweep faw = 0.2\n"
                "[workload ADD4]\n",
                "duplicate sweep key"},
        BadCase{"[variant a]\nfaw = 0.1\nsweep faw = 0.2\n"
                "[workload ADD4]\n",
                "both set and swept"},
        BadCase{"[variant a]\nsweep faw = 0.2\nfaw = 0.1\n"
                "[workload ADD4]\n",
                "both set and swept"},
        BadCase{"[variant a]\nsweep warp = 9\n[workload ADD4]\n",
                "unknown device key"},
        BadCase{"[scenario]\nsweep repeats = 1, 2\n"
                "[workload ADD4]\n",
                "not allowed in [scenario]"},
        BadCase{"[workload ADD4]\nsweep repeats = 1, 2\n",
                "cannot sweep workload key"},
        BadCase{"[workload ADD4]\nsweep elements = 1024, 0\n",
                "bad elements"},
        BadCase{"[workload ADD4]\nsweep seed = x\n", "bad seed"},
        BadCase{"[workload ADD4]\nelements = 512\n"
                "sweep elements = 1024, 2048\n",
                "both set and swept"},
        BadCase{"[workload ADD4]\nseed = 1\nsweep seed = 2, 3\n",
                "both set and swept"},
        // v3 service sections.
        BadCase{"[workload ADD4]\n[service a]\nmode = sideways\n",
                "bad mode"},
        BadCase{"[workload ADD4]\n[service a]\nrate = 0\n",
                "bad rate"},
        BadCase{"[workload ADD4]\n[service a]\npolicy = fifo\n",
                "bad policy"},
        BadCase{"[workload ADD4]\n[service a]\nbatch = 0\n",
                "bad batch"},
        BadCase{"[workload ADD4]\n[service a]\ndevices = 0\n",
                "bad devices"},
        BadCase{"[workload ADD4]\n[service a]\nmemo = maybe\n",
                "bad memo"},
        BadCase{"[workload ADD4]\n[service a]\nwarp = 9\n",
                "unknown service key"},
        BadCase{"[workload ADD4]\n[service a]\n[service a]\n",
                "duplicate service"},
        BadCase{"[workload ADD4]\n[service a]\nrate = 100\n"
                "sweep rate = 200, 300\n",
                "both set and swept"},
        BadCase{"[workload ADD4]\ntenant = x\n", "bad tenant"},
        BadCase{"[workload ADD4]\nweight = 0\n", "bad weight"},
        // Non-finite doubles would hang the serving simulation.
        BadCase{"[workload ADD4]\n[service a]\nrate = inf\n",
                "bad rate"},
        BadCase{"[workload ADD4]\n[service a]\nduration_ms = nan\n",
                "bad duration_ms"},
        BadCase{"[workload ADD4]\nweight = inf\n", "bad weight"}));

TEST(SimConfig, GridErrorsCarryLineNumbers)
{
    std::string err;
    EXPECT_FALSE(SimConfig::parse(
        "[variant a]\nsweep faw = 0.1, oops\n[workload ADD4]\n",
        err));
    EXPECT_EQ(err.rfind("line 2:", 0), 0u) << err;
}

/** @return the text inside a `backticked` table cell, else "". */
std::string
backticked(const std::string &cell)
{
    if (cell.size() < 2 || cell.front() != '`' || cell.back() != '`')
        return {};
    return cell.substr(1, cell.size() - 2);
}

/** @return every declared key as "section.key". */
template <typename S>
void
addDeclared(std::set<std::string> &out, const std::string &section,
            std::span<const Field<S>> table)
{
    for (const auto &f : table)
        out.insert(section + "." + f.key);
}

TEST(SimConfig, ReadmeKeyTablesMatchTheFieldTables)
{
    std::ifstream in(std::string(PLUTO_SOURCE_DIR) + "/README.md");
    ASSERT_TRUE(in) << "README.md not found under " << PLUTO_SOURCE_DIR;
    // Main key table rows start with one of these section cells; the
    // [service] table lists its keys in its first column.
    const std::map<std::string, std::string> sectionOf = {
        {"`[scenario]`", "scenario"},
        {"device/variant", "device"},
        {"`[workload X]`", "workload"},
        {"`[nn X]`", "nn"},
    };
    std::set<std::string> documented;
    bool serviceTable = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("|", 0) != 0) {
            serviceTable = false;
            continue;
        }
        std::vector<std::string> cells;
        std::istringstream row(line.substr(1));
        for (std::string cell; cells.size() < 2 &&
                               std::getline(row, cell, '|');) {
            const auto b = cell.find_first_not_of(' ');
            const auto e = cell.find_last_not_of(' ');
            cells.push_back(b == std::string::npos
                                ? ""
                                : cell.substr(b, e - b + 1));
        }
        if (cells.size() < 2)
            continue;
        if (cells[0] == "`[service]` key")
            serviceTable = true;
        else if (serviceTable && !backticked(cells[0]).empty())
            documented.insert("service." + backticked(cells[0]));
        else if (sectionOf.count(cells[0]) && !backticked(cells[1]).empty())
            documented.insert(sectionOf.at(cells[0]) + "." +
                              backticked(cells[1]));
    }

    std::set<std::string> declared;
    addDeclared(declared, "scenario", kScenarioFields);
    addDeclared(declared, "device", kDeviceFields);
    addDeclared(declared, "workload", kWorkloadFields);
    addDeclared(declared, "service", kServiceFields);
    addDeclared(declared, "nn", kNnFields);
    for (const auto &k : declared)
        EXPECT_TRUE(documented.count(k))
            << k << " is declared but has no README table row";
    for (const auto &k : documented)
        EXPECT_TRUE(declared.count(k))
            << k << " has a README table row but is not declared";
}

TEST(RunOptions, ValidatesShardRange)
{
    RunOptions opt;
    EXPECT_TRUE(opt.validate().empty());
    opt.shardCount = 0;
    EXPECT_NE(opt.validate().find("shard count"), std::string::npos);
    opt.shardCount = 3;
    opt.shardIndex = 3;
    EXPECT_NE(opt.validate().find("out of range"),
              std::string::npos);
    opt.shardIndex = 2;
    EXPECT_TRUE(opt.validate().empty());
}

TEST(SimConfig, LoadReportsMissingFile)
{
    std::string err;
    EXPECT_FALSE(SimConfig::load("/nonexistent/path.ini", err));
    EXPECT_NE(err.find("cannot open"), std::string::npos);
}

/** Small 2-variant x 2-workload scenario used by the run tests. */
SimConfig
smallScenario()
{
    std::string err;
    const auto cfg = SimConfig::parse(R"(
[scenario]
name = small
out_dir = /tmp/pluto_test_sim_out
[variant bsa]
design = bsa
[variant gmc]
design = gmc
[workload ADD4]
elements = 16384
repeats = 2
[workload Bitwise-AND]
elements = 65536
)",
                                      err);
    EXPECT_TRUE(cfg) << err;
    return *cfg;
}

RunOptions
onThreads(u32 threads)
{
    RunOptions opt;
    opt.threads = threads;
    return opt;
}

TEST(ScenarioRunner, DeterministicAcrossRepeatsAndThreads)
{
    const ScenarioRunner runner(smallScenario());
    const auto serial = runner.run(onThreads(1));
    const auto parallel = runner.run(onThreads(4));

    ASSERT_EQ(serial.runs.size(), 6u);
    ASSERT_EQ(parallel.runs.size(), serial.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        const auto &a = serial.runs[i];
        const auto &b = parallel.runs[i];
        // Report order and simulated results are bit-identical
        // regardless of thread count.
        EXPECT_EQ(a.variant, b.variant);
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.repeat, b.repeat);
        EXPECT_EQ(a.out.elements, b.out.elements);
        EXPECT_EQ(a.out.timeNs, b.out.timeNs) << i;
        EXPECT_EQ(a.out.energyPj, b.out.energyPj) << i;
        EXPECT_TRUE(a.out.verified) << a.workload;
    }
    EXPECT_TRUE(serial.allVerified());

    // Repeats of the same cell are identical too (seeded inputs).
    EXPECT_EQ(serial.runs[0].out.timeNs,
              serial.runs[1].out.timeNs);

    // Variant-major order: bsa block then gmc block.
    EXPECT_EQ(serial.runs[0].variant, "bsa");
    EXPECT_EQ(serial.runs[2].workload, "Bitwise-AND");
    EXPECT_EQ(serial.runs[3].variant, "gmc");

    // The two designs actually differ (distinct devices ran).
    EXPECT_NE(serial.runs[0].out.timeNs,
              serial.runs[3].out.timeNs);
}

TEST(MetricsSink, CsvSchema)
{
    const auto cfg = smallScenario();
    const auto report = ScenarioRunner(cfg).run(onThreads(1));
    const std::string csv = MetricsSink::renderCsv(cfg, report);

    std::istringstream in(csv);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    std::string expect;
    for (const auto &c : MetricsSink::csvColumns())
        expect += (expect.empty() ? "" : ",") + c;
    EXPECT_EQ(header, expect);

    std::size_t rows = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++rows;
        const auto commas =
            std::count(line.begin(), line.end(), ',');
        EXPECT_EQ(static_cast<std::size_t>(commas) + 1,
                  MetricsSink::csvColumns().size())
            << line;
        EXPECT_NE(line.find("small,"), std::string::npos);
    }
    EXPECT_EQ(rows, report.runs.size());
}

TEST(MetricsSink, JsonSchemaAndFiles)
{
    auto cfg = smallScenario();
    const auto report = ScenarioRunner(cfg).run(onThreads(1));

    const std::string json = MetricsSink::renderJson(cfg, report);
    for (const char *key :
         {"\"scenario\"", "\"total_runs\"", "\"all_verified\"",
          "\"results\"", "\"variants\"", "\"ns_per_elem\"",
          "\"speedup\"", "\"geomean_speedup_cpu\"", "\"cpu\"",
          "\"fpga\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_NE(json.find("\"scenario\": \"small\""),
              std::string::npos);
    EXPECT_NE(json.find("\"all_verified\": true"),
              std::string::npos);

    namespace fs = std::filesystem;
    cfg.outDir = (fs::temp_directory_path() / "pluto_sim_gtest")
                     .string();
    fs::remove_all(cfg.outDir);
    std::vector<std::string> written;
    const std::string err = MetricsSink::write(cfg, report, written);
    EXPECT_TRUE(err.empty()) << err;
    ASSERT_EQ(written.size(), 2u);
    EXPECT_TRUE(fs::exists(written[0]));
    EXPECT_TRUE(fs::exists(written[1]));
    EXPECT_NE(written[0].find("small_runs.csv"), std::string::npos);
    EXPECT_NE(written[1].find("small_summary.json"),
              std::string::npos);
    fs::remove_all(cfg.outDir);
}

TEST(Emit, CsvEscaping)
{
    EXPECT_EQ(csvEscape("plain"), "plain");
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");

    CsvWriter w({"a", "b"});
    w.addRow({"1", "x,y"});
    EXPECT_EQ(w.render(), "a,b\n1,\"x,y\"\n");
    EXPECT_EQ(w.rows(), 1u);
}

TEST(Emit, JsonRendering)
{
    auto root = JsonValue::object();
    root.set("s", "he\"llo\n");
    root.set("i", 42);
    root.set("f", 1.5);
    root.set("b", true);
    auto &arr = root.set("a", JsonValue::array());
    arr.push(1);
    arr.push("two");
    const std::string out = root.dump();
    EXPECT_NE(out.find("\"s\": \"he\\\"llo\\n\""),
              std::string::npos);
    EXPECT_NE(out.find("\"i\": 42"), std::string::npos);
    EXPECT_NE(out.find("\"f\": 1.5"), std::string::npos);
    EXPECT_NE(out.find("\"b\": true"), std::string::npos);
    EXPECT_NE(out.find("\"two\""), std::string::npos);
}

TEST(Registry, CreateIsNonFatalOnUnknown)
{
    EXPECT_EQ(workloads::createWorkload("NoSuchWorkload"), nullptr);
    const auto w = workloads::createWorkload("CRC-8");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), "CRC-8");
}

TEST(Registry, EveryListedNameCreates)
{
    const auto names = workloads::workloadNames();
    EXPECT_GE(names.size(), 19u);
    for (const auto &n : names) {
        const auto w = workloads::createWorkload(n);
        ASSERT_NE(w, nullptr) << n;
        EXPECT_EQ(w->name(), n);
    }
}

} // namespace
} // namespace pluto::sim
