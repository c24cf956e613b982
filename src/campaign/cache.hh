/**
 * @file
 * JsonlCache: the one content-addressed result cache behind every
 * campaign mode.
 *
 * A cache is an append-only JSONL file
 * (`<dir>/<scenario>.<kind>.cache.jsonl`), one outcome object per
 * line, so several shard processes of one campaign may append
 * concurrently (whole-line writes) and an interrupted campaign
 * resumes from whatever lines made it to disk. Loading is last-wins
 * per key and skips corrupt (e.g. torn) lines, counting them.
 * Simulated outcomes are deterministic, so replaying a hit is
 * bit-identical to recomputation; doubles are stored with %.17g and
 * therefore round-trip exactly.
 *
 * Format v2 starts every file with a version-header line
 * (`{"cacheFormat":2,"kind":"sim"}`). Loading accepts legacy
 * unversioned files (every line an entry) and *rejects* files
 * written by a future format with a clear error instead of silently
 * skipping every line as corrupt.
 *
 * Earlier builds could also write a binary encoding at the same path,
 * under a `{"cacheFormat":3,...,"encoding":"binary"}` header. That
 * encoding is retired: such a file fails to load with an error asking
 * for it to be deleted, never with a silent recompute.
 *
 * Modes plug in through a Codec type whose `kKind` names the mode: the
 * cache filename infix AND the content-key prefix, so equal
 * descriptors from different modes never collide in a shared
 * --cache-dir. The outcome's fields() visitor (common/codec.hh)
 * drives the JSONL body.
 */

#ifndef PLUTO_CAMPAIGN_CACHE_HH
#define PLUTO_CAMPAIGN_CACHE_HH

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/codec.hh"

namespace pluto::campaign
{

/** On-disk JSONL cache format this build reads and writes. */
constexpr u32 kCacheFormat = 2;

namespace detail
{

/**
 * Load one JSONL cache file: handle the version header (legacy
 * unversioned files load as pure entry streams; future formats and
 * retired binary files @return a non-empty error), call
 * `onEntry(key, obj)` per entry line, and count lines that are
 * corrupt or whose `onEntry` returns false in `corrupt`. A missing
 * file is an empty cache.
 */
std::string
loadJsonlCache(const std::string &path, u64 &corrupt,
               const std::function<bool(const std::string &key,
                                        const JsonValue &obj)> &onEntry);

/**
 * Append one whole line, creating the directory and writing the
 * `kind` version header first when the file is new or empty.
 * @return empty string or an error description.
 */
std::string appendJsonlLine(const std::string &dir,
                            const std::string &path,
                            const std::string &kind,
                            const std::string &line);

} // namespace detail

/** Append-only JSONL outcome cache for one scenario and mode. */
template <typename Outcome, typename Codec>
class JsonlCache
{
  public:
    /** The mode's name: filename infix and content-key prefix. */
    static constexpr const char *kKind = Codec::kKind;

    /**
     * Cache for scenario `scenario` under directory `dir` (created
     * if missing on first append).
     */
    JsonlCache(std::string dir, const std::string &scenario)
        : dir_(std::move(dir)),
          path_(dir_ + "/" + scenario + "." + Codec::kKind +
                ".cache.jsonl")
    {
    }

    /**
     * @return the content key of `descriptor`, namespaced by the
     * codec's kind — `sim/` and `serve/` cells with coincidentally
     * equal descriptors hash to different keys.
     */
    static std::string keyFor(const std::string &descriptor)
    {
        return fnv1aHex(std::string(Codec::kKind) + "/" + descriptor);
    }

    /**
     * Load the cache file (missing file = empty cache). @return
     * empty string, or a clear error when the file was written by a
     * future cache format or in the retired binary encoding.
     */
    std::string load()
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.clear();
        corrupt_ = 0;
        return detail::loadJsonlCache(
            path_, corrupt_,
            [&](const std::string &key, const JsonValue &obj) {
                Outcome out;
                if (!fromJson(obj, out))
                    return false;
                entries_[key] = std::move(out); // last line wins
                return true;
            });
    }

    /**
     * Look up `key`. The returned copy (not a reference) keeps the
     * caller safe from concurrent append() map mutations.
     */
    std::optional<Outcome> lookup(const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = entries_.find(key);
        if (it == entries_.end())
            return std::nullopt;
        return it->second;
    }

    /**
     * Append one outcome (thread-safe; one whole line per write so
     * concurrent shard appends do not interleave). @return empty
     * string or an error description.
     */
    std::string append(const std::string &key, const Outcome &out)
    {
        const std::string line =
            "{\"key\":\"" + key + "\"" + jsonMembers(out) + "}\n";
        std::lock_guard<std::mutex> lock(mu_);
        std::string err =
            detail::appendJsonlLine(dir_, path_, Codec::kKind, line);
        if (err.empty())
            entries_[key] = out;
        return err;
    }

    /** @return loaded entry count. */
    std::size_t entries() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return entries_.size();
    }

    /** @return lines skipped as corrupt during load(). */
    u64 corruptLines() const { return corrupt_; }

    /** @return the backing cache file path. */
    const std::string &path() const { return path_; }

  private:
    std::string dir_;
    std::string path_;
    /** Guards entries_ (lookup from worker threads vs append). */
    mutable std::mutex mu_;
    std::map<std::string, Outcome> entries_;
    u64 corrupt_ = 0;
};

} // namespace pluto::campaign

#endif // PLUTO_CAMPAIGN_CACHE_HH
