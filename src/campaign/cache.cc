/**
 * @file
 * Cache file engines (see cache.hh): everything about the on-disk
 * JSONL and binary formats that does not depend on the outcome type.
 */

#include "campaign/cache.hh"

#include <filesystem>
#include <fstream>
#include <iterator>

namespace pluto::campaign
{

const char *
cacheFormatName(CacheFormat f)
{
    return f == CacheFormat::Binary ? "binary" : "jsonl";
}

bool
parseCacheFormat(const std::string &s, CacheFormat &out)
{
    if (s == "jsonl")
        out = CacheFormat::Jsonl;
    else if (s == "binary")
        out = CacheFormat::Binary;
    else
        return false;
    return true;
}

} // namespace pluto::campaign

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

/**
 * @return the binary header line. Still one JSON line: a JSONL
 * reader (this build or an older one) that opens a binary file sees
 * a higher cacheFormat and fails loudly instead of recomputing.
 */
std::string
binaryHeaderLine(const std::string &kind)
{
    return "{\"cacheFormat\":" + std::to_string(kBinaryCacheFormat) +
           ",\"kind\":\"" + kind + "\",\"encoding\":\"binary\"}\n";
}

/** FNV-1a 32-bit, the per-record checksum of the binary format. */
u32
fnv1a32(const char *p, std::size_t n)
{
    u32 h = 2166136261u;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<u8>(p[i]);
        h *= 16777619u;
    }
    return h;
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
                       "' is a binary cache; rerun with "
                       "--cache-format binary (or delete it to "
                       "recompute as jsonl)";
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

std::string
loadBinaryCache(const std::string &path, const std::string &kind,
                u64 &corrupt,
                const std::function<bool(const std::string &key,
                                         BinIn &body)> &onEntry)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {}; // no cache yet
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (data.empty())
        return {};

    const std::string header = binaryHeaderLine(kind);
    if (data.compare(0, header.size(), header) != 0) {
        // Classify the foreign file for a message naming the fix.
        const auto nl = data.find('\n');
        const std::string first =
            data.substr(0, nl == std::string::npos ? data.size() : nl);
        std::string perr;
        const auto v = JsonValue::parse(first, perr);
        if (v && v->isObject()) {
            if (const JsonValue *f = v->find("cacheFormat")) {
                if (f->isNumber() &&
                    f->asNumber() >
                        static_cast<double>(kBinaryCacheFormat))
                    return "cache file '" + path +
                           "' uses cacheFormat " +
                           std::to_string(
                               static_cast<u64>(f->asNumber())) +
                           " but this build reads formats <= " +
                           std::to_string(kBinaryCacheFormat) +
                           "; delete the file or upgrade";
            }
        }
        return "cache file '" + path +
               "' is not a binary cache; rerun with "
               "--cache-format jsonl (or delete it to recompute "
               "as binary)";
    }

    std::size_t pos = header.size();
    while (pos < data.size()) {
        // Racing creators may each have written a header; the line
        // is deterministic, so skip exact duplicates at record
        // boundaries.
        if (data.compare(pos, header.size(), header) == 0) {
            pos += header.size();
            continue;
        }
        if (data.size() - pos < 8) {
            ++corrupt; // torn tail: frame shorter than its preamble
            break;
        }
        u32 len, sum;
        std::memcpy(&len, data.data() + pos, 4);
        std::memcpy(&sum, data.data() + pos + 4, 4);
        if (data.size() - pos - 8 < len) {
            ++corrupt; // torn tail: record body cut short
            break;
        }
        const char *payload = data.data() + pos + 8;
        if (fnv1a32(payload, len) != sum) {
            // Framing can't be trusted past a bad checksum; with
            // whole-record appends this is a torn tail, so stop.
            ++corrupt;
            break;
        }
        pos += 8 + static_cast<std::size_t>(len);
        BinIn rec(std::string_view(payload, len));
        std::string key;
        rec("", key);
        if (!rec.ok() || !onEntry(key, rec))
            ++corrupt;
    }
    return {};
}

std::string
appendBinaryRecord(const std::string &dir, const std::string &path,
                   const std::string &kind, const std::string &key,
                   const std::string &body)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return "cannot create cache directory '" + dir +
               "': " + ec.message();
    const auto size = std::filesystem::file_size(path, ec);
    const bool fresh = ec || size == 0;

    BinOut payload;
    payload("", key);
    std::string record = payload.bytes() + body;
    const u32 len = static_cast<u32>(record.size());
    const u32 sum = fnv1a32(record.data(), record.size());
    std::string blob;
    if (fresh)
        blob = binaryHeaderLine(kind);
    BinOut preamble;
    preamble("", len);
    preamble("", sum);
    blob += preamble.bytes() + record;

    // One write() for header + frame keeps concurrent shard appends
    // whole, mirroring the JSONL whole-line discipline.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out)
        return "cannot open cache file '" + path + "' for append";
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out)
        return "append to '" + path + "' failed";
    return {};
}

} // namespace pluto::campaign::detail
