/**
 * @file
 * Closed-form pLUTo LUT Query analysis: the latency, energy and
 * throughput expressions of Table 1 and Sections 5.1.4 / 5.2.3 /
 * 5.3.4. These are the single source of truth that the timed query
 * engine is validated against (tests/test_query_engine.cc).
 */

#ifndef PLUTO_PLUTO_ANALYSIS_HH
#define PLUTO_PLUTO_ANALYSIS_HH

#include "common/units.hh"
#include "dram/geometry.hh"
#include "dram/timing.hh"
#include "pluto/design.hh"

namespace pluto::core
{

/**
 * Latency of one pLUTo Row Sweep over `n` LUT rows (Table 1, "Query
 * Latency" row). For GSA this includes the per-query LUT reload
 * (LISA_RBM x N).
 */
TimeNs queryLatency(Design d, const dram::TimingParams &t, u32 n);

/** Energy of one pLUTo LUT Query over `n` LUT rows (Table 1). */
EnergyPj queryEnergy(Design d, const dram::EnergyParams &e, u32 n);

/**
 * Maximum LUT-query throughput of a single pLUTo-enabled subarray in
 * queries per second (Sections 5.1.4 / 5.2.3 / 5.3.4):
 * (row bits / input bit width) / query latency.
 */
double queryThroughputPerSec(Design d, const dram::TimingParams &t,
                             const dram::Geometry &g, u32 input_bit_width,
                             u32 n);

} // namespace pluto::core

#endif // PLUTO_PLUTO_ANALYSIS_HH
