/**
 * @file
 * Shared helpers for the per-figure/per-table bench harnesses.
 */

#ifndef PLUTO_BENCH_BENCH_COMMON_HH
#define PLUTO_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "workloads/workload.hh"

namespace pluto::bench
{

/** Print a titled section. */
inline void
section(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace pluto::bench

#endif // PLUTO_BENCH_BENCH_COMMON_HH
