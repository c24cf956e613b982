/**
 * @file
 * Content-key primitives shared by every campaign cache: the FNV-1a
 * descriptor hash, exact double formatting, and the canonical device
 * descriptor. One definition here keeps the sim, serve and nn cache
 * codecs byte-compatible with each other — a descriptor hashed by
 * any mode uses the same formatting rules.
 */

#ifndef PLUTO_COMMON_DIGEST_HH
#define PLUTO_COMMON_DIGEST_HH

#include <string>

namespace pluto::runtime
{
struct DeviceConfig;
}

namespace pluto
{

/**
 * @return the 16-hex-digit FNV-1a hash of `descriptor` — the content
 * key format shared by every campaign cache.
 */
std::string fnv1aHex(const std::string &descriptor);

/** @return `v` formatted so it round-trips exactly (%.17g). */
std::string fmtDoubleExact(double v);

/** @return `s` with '"' and '\\' backslash-escaped: a JSON string
 *  body for plain names and paths. */
std::string jsonEscape(const std::string &s);

/**
 * @return the canonical descriptor string of a device configuration:
 * every field that can change a simulated result, in a fixed order.
 * Shared by all content keys that depend on the device.
 */
std::string deviceDescriptor(const runtime::DeviceConfig &cfg);

} // namespace pluto

#endif // PLUTO_COMMON_DIGEST_HH
