/**
 * @file
 * Batch-run cache content key (see cache.hh).
 */

#include "sim/cache.hh"

#include <sstream>

namespace pluto::sim
{

namespace
{

/** Bump when the timing/energy model changes cached semantics. */
constexpr u32 kRunSchema = 2;

} // namespace

std::string
RunCache::key(const runtime::DeviceConfig &cfg,
              const std::string &workload, u64 elements, u64 seed,
              u32 repeat)
{
    std::ostringstream d;
    d << 'v' << kRunSchema << '|' << deviceDescriptor(cfg) << '|'
      << workload << '|' << elements << '|' << seed << '|' << repeat;
    return keyFor(d.str());
}

} // namespace pluto::sim
