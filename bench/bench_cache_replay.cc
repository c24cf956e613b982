/**
 * @file
 * Campaign cache replay: wall-clock of JsonlCache::load() over a
 * populated cache, plus round-trip identity. Example scenarios hold
 * a handful of cells, far too few to time parsing, so this bench
 * synthesizes a campaign-sized cache (50k outcomes), reloads it, and
 * requires every entry to round-trip exactly — doubles included —
 * before reporting. The machine-readable line
 * (`cache_replay,jsonl,<entries>,<load_ms>,<bytes>`) feeds
 * scripts/bench_report.sh.
 */

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>

#include "bench_common.hh"
#include "sim/cache.hh"

using namespace pluto;
using namespace pluto::bench;

namespace
{

constexpr u64 kEntries = 50000;

using Cache =
    campaign::JsonlCache<sim::RunOutcome, sim::RunCacheCodec>;

double
msSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Deterministic synthetic outcome with bit-twiddly doubles. */
sim::RunOutcome
makeRun(u64 i)
{
    sim::RunOutcome r;
    r.elements = 1024 + i;
    r.timeNs = 1e6 / (static_cast<double>(i) + 3.0);
    r.energyPj = std::sqrt(static_cast<double>(i) + 7.0) * 1e3;
    r.hostNs = static_cast<double>(i) * 0.125 + 0.001;
    r.verified = (i % 7) != 0;
    r.wallMs = static_cast<double>(i % 97) * 1.5e-2;
    return r;
}

bool
sameRun(const sim::RunOutcome &a, const sim::RunOutcome &b)
{
    return a.elements == b.elements && a.timeNs == b.timeNs &&
           a.energyPj == b.energyPj && a.hostNs == b.hostNs &&
           a.verified == b.verified && a.wallMs == b.wallMs;
}

struct ReplayResult
{
    double loadMs = 0.0;
    u64 bytes = 0;
    bool ok = false;
};

ReplayResult
runReplay(const std::string &dir)
{
    ReplayResult res;
    {
        Cache writer(dir, "replay");
        for (u64 i = 0; i < kEntries; ++i) {
            const std::string err =
                writer.append(Cache::keyFor(std::to_string(i)),
                              makeRun(i));
            if (!err.empty()) {
                std::fprintf(stderr, "append: %s\n", err.c_str());
                return res;
            }
        }
    }

    Cache reader(dir, "replay");
    const auto t0 = std::chrono::steady_clock::now();
    const std::string err = reader.load();
    res.loadMs = msSince(t0);
    if (!err.empty()) {
        std::fprintf(stderr, "load: %s\n", err.c_str());
        return res;
    }
    std::error_code ec;
    res.bytes = std::filesystem::file_size(reader.path(), ec);

    if (reader.entries() != kEntries ||
        reader.corruptLines() != 0) {
        std::fprintf(stderr, "%zu/%llu entries, %llu corrupt\n",
                     reader.entries(),
                     static_cast<unsigned long long>(kEntries),
                     static_cast<unsigned long long>(
                         reader.corruptLines()));
        return res;
    }
    for (u64 i = 0; i < kEntries; ++i) {
        const auto hit =
            reader.lookup(Cache::keyFor(std::to_string(i)));
        if (!hit || !sameRun(*hit, makeRun(i))) {
            std::fprintf(stderr, "entry %llu failed round-trip\n",
                         static_cast<unsigned long long>(i));
            return res;
        }
    }
    res.ok = true;
    return res;
}

} // namespace

int
main()
{
    section("Campaign cache replay: JSONL load() wall-clock");

    const auto dir =
        std::filesystem::temp_directory_path() /
        ("pluto_bench_cache_replay_" +
         std::to_string(static_cast<unsigned long>(getpid())));
    const ReplayResult res = runReplay(dir.string());
    AsciiTable t({"entries", "file MB", "load ms"});
    t.addRow({std::to_string(kEntries),
              fmtSig(static_cast<double>(res.bytes) / 1e6),
              fmtSig(res.loadMs)});
    std::printf("cache_replay,jsonl,%llu,%.3f,%llu\n",
                static_cast<unsigned long long>(kEntries), res.loadMs,
                static_cast<unsigned long long>(res.bytes));
    std::printf("%s", t.render().c_str());

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    if (!res.ok) {
        std::fprintf(stderr, "FAIL: cache replay round-trip\n");
        return 1;
    }
    return 0;
}
