/**
 * @file
 * Content-key primitives (see digest.hh).
 */

#include "common/digest.hh"

#include <cstdio>
#include <sstream>

#include "pluto/design.hh"
#include "runtime/device.hh"

namespace pluto
{

namespace
{

u64
fnv1a(const std::string &s)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<u8>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

std::string
fnv1aHex(const std::string &descriptor)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(descriptor)));
    return buf;
}

std::string
fmtDoubleExact(double v)
{
    // %.17g: round-trips any double exactly through strtod.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
deviceDescriptor(const runtime::DeviceConfig &cfg)
{
    std::ostringstream d;
    d << dram::memoryKindName(cfg.memory) << '|'
      << core::designName(cfg.design) << '|' << cfg.salp << '|'
      << fmtDoubleExact(cfg.fawScale) << '|' << cfg.modelRefresh
      << '|' << static_cast<int>(cfg.loadMethod) << '|'
      << fmtDoubleExact(cfg.loadModel.memoryBw) << ','
      << fmtDoubleExact(cfg.loadModel.storageBw) << ','
      << fmtDoubleExact(cfg.loadModel.generateNsPerElem) << ','
      // The retired row-image budget (64 MiB), kept so keys stay
      // byte-identical until the ROADMAP's "One device-schema bump".
      << "67108864" << '|';
    if (cfg.geometry) {
        const auto &g = *cfg.geometry;
        d << "geom:" << g.banks << ',' << g.subarraysPerBank << ','
          << g.rowsPerSubarray << ',' << g.rowBytes << ','
          << g.defaultSalp;
    } else {
        d << "geom:default";
    }
    return d.str();
}

} // namespace pluto
