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
 * Format v3 is the optional binary encoding (--cache-format binary):
 * the same file path, but after an ASCII JSON header line that also
 * carries `"encoding":"binary"`, entries are length-prefixed
 * checksummed records ([u32 len][u32 fnv1a32][key string][codec
 * body]) instead of JSON lines. Records are still append-only whole
 * writes (shard-merge compatible), doubles travel as raw bits (so
 * replay is exactly as bit-identical as JSONL's %.17g), and because
 * the header is a JSON line at the same path, a JSONL-only or older
 * build that opens a binary cache hits the versioned-format error
 * above instead of silently recomputing. Mixing formats in either
 * direction produces a clear error naming the --cache-format value
 * to pass.
 *
 * Modes plug in through a Codec type whose `kKind` names the mode: the
 * cache filename infix AND the content-key prefix, so equal
 * descriptors from different modes never collide in a shared
 * --cache-dir. The outcome's fields() visitor (common/codec.hh)
 * drives both the JSONL body and the binary record.
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

/**
 * On-disk format of the binary encoding. Deliberately above
 * kCacheFormat: a build that predates the binary cache rejects such
 * a file through its ordinary future-format check instead of
 * skipping every record as corrupt and silently recomputing.
 */
constexpr u32 kBinaryCacheFormat = 3;

/** Cache file encoding selected per campaign (--cache-format). */
enum class CacheFormat : u8
{
    Jsonl = 0,
    Binary = 1,
};

/** @return "jsonl" or "binary". */
const char *cacheFormatName(CacheFormat f);

/** Parse a --cache-format value; false = unrecognised. */
bool parseCacheFormat(const std::string &s, CacheFormat &out);

namespace detail
{

/**
 * Load one JSONL cache file: handle the version header (legacy
 * unversioned files load as pure entry streams; future formats
 * @return a non-empty error), call `onEntry(key, obj)` per entry
 * line, and count lines that are corrupt or whose `onEntry` returns
 * false in `corrupt`. A missing file is an empty cache.
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

/**
 * Load one binary (v3) cache file: verify the header, then call
 * `onEntry(key, body)` per checksummed record, counting bad records
 * in `corrupt` (framing damage ends the scan at that point — with
 * whole-record appends that only happens at a torn tail). A missing
 * file is an empty cache; a JSONL or future-format file @return a
 * non-empty error naming the fix.
 */
std::string
loadBinaryCache(const std::string &path, const std::string &kind,
                u64 &corrupt,
                const std::function<bool(const std::string &key,
                                         BinIn &body)> &onEntry);

/**
 * Append one [len][checksum][key][body] record, creating directory
 * and binary header like appendJsonlLine. One whole write per
 * record, so concurrent shard appends do not interleave.
 * @return empty string or an error description.
 */
std::string appendBinaryRecord(const std::string &dir,
                               const std::string &path,
                               const std::string &kind,
                               const std::string &key,
                               const std::string &body);

} // namespace detail

/** Append-only JSONL outcome cache for one scenario and mode. */
template <typename Outcome, typename Codec>
class JsonlCache
{
  public:
    /**
     * Cache for scenario `scenario` under directory `dir` (created
     * if missing on first append), stored in `format`. Both formats
     * share one path per scenario/kind: a cache directory holds one
     * encoding per cell, and opening it with the other --cache-format
     * fails loudly instead of recomputing.
     */
    JsonlCache(std::string dir, const std::string &scenario,
               CacheFormat format = CacheFormat::Jsonl)
        : dir_(std::move(dir)),
          path_(dir_ + "/" + scenario + "." + Codec::kKind +
                ".cache.jsonl"),
          format_(format)
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
     * future cache format.
     */
    std::string load()
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.clear();
        corrupt_ = 0;
        if (format_ == CacheFormat::Binary)
            return detail::loadBinaryCache(
                path_, Codec::kKind, corrupt_,
                [&](const std::string &key, BinIn &body) {
                    Outcome out;
                    if (!fromBinary(body, out))
                        return false;
                    entries_[key] = std::move(out); // last wins
                    return true;
                });
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
        std::string err;
        if (format_ == CacheFormat::Binary) {
            const std::string body = toBinary(out);
            std::lock_guard<std::mutex> lock(mu_);
            err = detail::appendBinaryRecord(dir_, path_, Codec::kKind,
                                             key, body);
            if (err.empty())
                entries_[key] = out;
            return err;
        }
        const std::string line =
            "{\"key\":\"" + key + "\"" + jsonMembers(out) + "}\n";
        std::lock_guard<std::mutex> lock(mu_);
        err = detail::appendJsonlLine(dir_, path_, Codec::kKind, line);
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

    /** @return the backing cache file path (shared by formats). */
    const std::string &path() const { return path_; }

    /** @return the encoding this cache reads and writes. */
    CacheFormat format() const { return format_; }

  private:
    std::string dir_;
    std::string path_;
    CacheFormat format_ = CacheFormat::Jsonl;
    /** Guards entries_ (lookup from worker threads vs append). */
    mutable std::mutex mu_;
    std::map<std::string, Outcome> entries_;
    u64 corrupt_ = 0;
};

} // namespace pluto::campaign

#endif // PLUTO_CAMPAIGN_CACHE_HH
