/**
 * @file
 * Cache file engine (see cache.hh): everything about the on-disk
 * JSONL format that does not depend on the outcome type.
 */

#include "campaign/cache.hh"

#include <filesystem>
#include <fstream>

namespace pluto::campaign::detail
{

namespace
{

/** @return the version-header line announcing `kind` entries. */
std::string
headerLine(const std::string &kind)
{
    return "{\"cacheFormat\":" + std::to_string(kCacheFormat) +
           ",\"kind\":\"" + kind + "\"}\n";
}

} // namespace

std::string
loadJsonlCache(const std::string &path, u64 &corrupt,
               const std::function<bool(const std::string &key,
                                        const JsonValue &obj)> &onEntry)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {}; // no cache yet
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string err;
        const auto v = JsonValue::parse(line, err);
        if (!v || !v->isObject()) {
            ++corrupt;
            continue;
        }
        // Version headers may appear anywhere: concurrent shard
        // processes that both created the file each wrote one.
        if (const JsonValue *format = v->find("cacheFormat")) {
            if (!format->isNumber()) {
                ++corrupt;
                continue;
            }
            const JsonValue *enc = v->find("encoding");
            if (enc && enc->isString() &&
                enc->asString() == "binary")
                return "cache file '" + path +
                       "' is a binary cache, an encoding this build "
                       "no longer reads; delete the file to "
                       "recompute its cells";
            const double f = format->asNumber();
            if (f > static_cast<double>(kCacheFormat))
                return "cache file '" + path +
                       "' uses cacheFormat " +
                       std::to_string(static_cast<u64>(f)) +
                       " but this build reads formats <= " +
                       std::to_string(kCacheFormat) +
                       "; delete the file or upgrade";
            continue; // current or older header: skip
        }
        const JsonValue *key = v->find("key");
        if (!key || !key->isString() || !onEntry(key->asString(), *v))
            ++corrupt;
    }
    return {};
}

std::string
appendJsonlLine(const std::string &dir, const std::string &path,
                const std::string &kind, const std::string &line)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return "cannot create cache directory '" + dir +
               "': " + ec.message();
    // New or empty file: lead with the version header. Two processes
    // racing here may both write one; the loader skips headers
    // wherever they appear.
    const auto size = std::filesystem::file_size(path, ec);
    const bool fresh = ec || size == 0;
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out)
        return "cannot open cache file '" + path + "' for append";
    if (fresh) {
        const std::string header = headerLine(kind);
        out.write(header.data(),
                  static_cast<std::streamsize>(header.size()));
    }
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.flush();
    if (!out)
        return "append to '" + path + "' failed";
    return {};
}

} // namespace pluto::campaign::detail
