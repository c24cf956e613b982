/**
 * @file
 * Physical placement of pLUTo data rows and LUT subarrays.
 *
 * Each bank's subarrays are split into a data pool (lower half) and a
 * LUT pool (upper half), so every data row has LUT-holding subarrays
 * in physical proximity within its bank (Section 6.5's placement
 * requirement). Data rows are distributed round-robin across `salp`
 * lanes — one (bank, subarray) pair per lane — so that row i of every
 * vector lands on lane (i mod salp) and lock-step SALP waves line up.
 */

#ifndef PLUTO_RUNTIME_ALLOCATOR_HH
#define PLUTO_RUNTIME_ALLOCATOR_HH

#include <vector>

#include "dram/address.hh"
#include "dram/geometry.hh"

namespace pluto::runtime
{

/** Row / subarray allocator for one device. */
class RowAllocator
{
  public:
    /**
     * @param geom Module geometry.
     * @param salp Subarray-level parallelism (lanes). Must not exceed
     *        the data pool size (banks x subarraysPerBank / 2).
     */
    RowAllocator(const dram::Geometry &geom, u32 salp);

    /** @return configured lane count. */
    u32 salp() const { return salp_; }

    /**
     * Allocate `rows` data rows, row i on lane (i mod salp).
     * Fatal if a lane's subarray runs out of rows.
     */
    std::vector<dram::RowAddress> allocRows(u64 rows);

    /** Allocate `count` exclusive LUT-pool subarrays. */
    std::vector<dram::SubarrayAddress> allocLutSubarrays(u32 count);

  private:
    dram::SubarrayAddress laneSubarray(u32 lane) const;

    dram::Geometry geom_;
    u32 salp_;
    u32 dataPerBank_;
    /** Next free row per lane. */
    std::vector<u32> laneCursor_;
    /** Next unallocated LUT-pool subarray (flat index). */
    u32 lutCursor_ = 0;
};

} // namespace pluto::runtime

#endif // PLUTO_RUNTIME_ALLOCATOR_HH
