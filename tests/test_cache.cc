/**
 * @file
 * RunCache robustness tests: torn-line recovery (interrupted shard
 * writes must not poison the cache) and concurrent append under
 * contention (parallel shard processes share one JSONL file), with
 * bit-identical replay of every surviving entry. The service layer's
 * sweep-resume path leans on exactly these properties.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "sim/cache.hh"

namespace pluto::sim
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

/** A RunOutcome with awkward (non-terminating) double values. */
RunOutcome
runFor(u64 i)
{
    RunOutcome r;
    r.elements = 1000 + i;
    r.timeNs = 1e9 / 3.0 + static_cast<double>(i) * 0.1;
    r.energyPj = 7.0 / 9.0 * static_cast<double>(i + 1);
    r.hostNs = static_cast<double>(i) / 7.0;
    r.verified = (i % 3) != 0;
    r.wallMs = static_cast<double>(i) * (1.0 / 13.0);
    return r;
}

void
expectSameRun(const RunOutcome &a, const RunOutcome &b)
{
    EXPECT_EQ(a.elements, b.elements);
    // Bit-identical, not approximately equal: %.17g round-trips.
    EXPECT_EQ(a.timeNs, b.timeNs);
    EXPECT_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.hostNs, b.hostNs);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.wallMs, b.wallMs);
}

TEST(RunCache, RecoversFromTornAndCorruptLines)
{
    const auto dir = scratchDir("pluto_cache_torn_test");
    RunCache writer(dir, "torn");
    ASSERT_TRUE(writer.append("aaaa", runFor(1)).empty());
    ASSERT_TRUE(writer.append("bbbb", runFor(2)).empty());

    // Simulate an interrupted shard: a torn half-line with no
    // newline, then lines a healthy process appended afterwards.
    {
        std::ofstream out(writer.path(),
                          std::ios::binary | std::ios::app);
        out << "{\"key\":\"cccc\",\"elements\":17,\"time_n"; // torn
        out << "\n";
        out << "not json at all\n";
        out << "[1,2,3]\n"; // valid JSON, wrong shape
    }
    RunCache healthy(dir, "torn");
    ASSERT_TRUE(healthy.append("dddd", runFor(4)).empty());

    RunCache reader(dir, "torn");
    reader.load();
    EXPECT_EQ(reader.entries(), 3u);
    EXPECT_EQ(reader.corruptLines(), 3u);
    ASSERT_TRUE(reader.lookup("aaaa"));
    ASSERT_TRUE(reader.lookup("dddd"));
    EXPECT_FALSE(reader.lookup("cccc")); // the torn line is gone
    expectSameRun(*reader.lookup("aaaa"), runFor(1));
    expectSameRun(*reader.lookup("bbbb"), runFor(2));
    expectSameRun(*reader.lookup("dddd"), runFor(4));
    fs::remove_all(dir);
}

TEST(RunCache, TornTailWithoutNewlineSwallowsOnlyThatWrite)
{
    const auto dir = scratchDir("pluto_cache_tail_test");
    RunCache writer(dir, "tail");
    ASSERT_TRUE(writer.append("aaaa", runFor(1)).empty());

    // A writer that died mid-write leaves no trailing newline; the
    // next healthy append glues onto the torn tail. Exactly that one
    // combined line is lost — earlier entries replay bit-identically.
    {
        std::ofstream out(writer.path(),
                          std::ios::binary | std::ios::app);
        out << "{\"key\":\"cccc\",\"elem"; // no newline
    }
    RunCache healthy(dir, "tail");
    ASSERT_TRUE(healthy.append("dddd", runFor(4)).empty());
    ASSERT_TRUE(healthy.append("eeee", runFor(5)).empty());

    RunCache reader(dir, "tail");
    reader.load();
    EXPECT_EQ(reader.corruptLines(), 1u);
    EXPECT_EQ(reader.entries(), 2u);
    EXPECT_FALSE(reader.lookup("cccc"));
    EXPECT_FALSE(reader.lookup("dddd")); // glued to the torn tail
    expectSameRun(*reader.lookup("aaaa"), runFor(1));
    expectSameRun(*reader.lookup("eeee"), runFor(5));
    fs::remove_all(dir);
}

TEST(RunCache, LastLineWinsOnDuplicateKeys)
{
    const auto dir = scratchDir("pluto_cache_dup_test");
    RunCache writer(dir, "dup");
    ASSERT_TRUE(writer.append("kkkk", runFor(1)).empty());
    ASSERT_TRUE(writer.append("kkkk", runFor(9)).empty());

    RunCache reader(dir, "dup");
    reader.load();
    EXPECT_EQ(reader.entries(), 1u);
    expectSameRun(*reader.lookup("kkkk"), runFor(9));
    fs::remove_all(dir);
}

TEST(RunCache, ConcurrentAppendUnderContention)
{
    const auto dir = scratchDir("pluto_cache_mt_test");
    constexpr u32 kThreads = 8;
    constexpr u64 kPerThread = 200;

    // Half the threads share one RunCache (mutex path), half own a
    // private instance on the same file (multi-process shard path).
    RunCache shared(dir, "mt");
    std::vector<std::thread> pool;
    for (u32 t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t]() {
            std::optional<RunCache> own;
            if (t % 2)
                own.emplace(dir, "mt");
            RunCache &cache = own ? *own : shared;
            for (u64 i = 0; i < kPerThread; ++i) {
                const u64 id = t * kPerThread + i;
                ASSERT_TRUE(
                    cache.append("key" + std::to_string(id),
                                 runFor(id))
                        .empty());
            }
        });
    }
    for (auto &th : pool)
        th.join();

    // Whole-line appends: every entry must replay bit-identically,
    // nothing torn, nothing interleaved.
    RunCache reader(dir, "mt");
    reader.load();
    EXPECT_EQ(reader.corruptLines(), 0u);
    ASSERT_EQ(reader.entries(), kThreads * kPerThread);
    for (u64 id = 0; id < kThreads * kPerThread; ++id) {
        const auto hit =
            reader.lookup("key" + std::to_string(id));
        ASSERT_TRUE(hit) << id;
        expectSameRun(*hit, runFor(id));
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace pluto::sim
