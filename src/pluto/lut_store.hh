/**
 * @file
 * LUT placement and loading (Sections 6.5 and 8.5).
 *
 * A LutPlacement assigns a Lut to one or more pLUTo-enabled
 * subarrays: in hardware each LUT row holds its element replicated
 * across all slots of the row. LUTs larger than a subarray are
 * partitioned across consecutive subarrays (Section 5.6). The
 * simulator keeps each LUT once, as its Lut values; it never writes
 * the replicated row image into the DRAM model. The store models the
 * three loading methods the paper evaluates — first-time generation,
 * loading from memory (19.2 GB/s DDR4 channel) and loading from
 * secondary storage (7.5 GB/s M.2 SSD) — and `LutPlacement::loaded`
 * is the only record of GSA's destructive sweeps, so a destroyed LUT
 * is reloaded before its next query.
 */

#ifndef PLUTO_PLUTO_LUT_STORE_HH
#define PLUTO_PLUTO_LUT_STORE_HH

#include <memory>
#include <vector>

#include "dram/module.hh"
#include "dram/scheduler.hh"
#include "pluto/lut.hh"

namespace pluto::core
{

/** How a LUT's contents reach the pLUTo-enabled subarray. */
enum class LutLoadMethod
{
    /** Compute every element from scratch, then write (Section 6.5). */
    FirstTimeGeneration,
    /** Copy an existing in-memory LUT over the channel. */
    FromMemory,
    /** DMA from an M.2 SSD. */
    FromStorage,
};

/** Bandwidth/cost constants of the loading model (Section 8.5). */
struct LutLoadModel
{
    /** DDR4 channel bandwidth (Figure 11 uses 19.2 GB/s [135]). */
    BytesPerNs memoryBw = 19.2;
    /** M.2 SSD bandwidth (Figure 11 uses 7500 MB/s [136]). */
    BytesPerNs storageBw = 7.5;
    /** Host-side cost of computing one LUT element from scratch. */
    TimeNs generateNsPerElem = 10.0;

    /**
     * Time to load a LUT that occupies `rows` rows of `row_bytes`
     * each. The loaded volume is the full replicated subarray image
     * (rows x row bytes); in-DRAM replication to additional SALP
     * lanes uses RowClone/LISA and is negligible by comparison.
     */
    TimeNs loadTime(LutLoadMethod m, u64 rows, u64 row_bytes) const;
};

/** A LUT resident in one or more pLUTo-enabled subarrays. */
struct LutPlacement
{
    explicit LutPlacement(Lut l) : lut(std::move(l)) {}

    Lut lut;
    /**
     * Subarrays holding the partitions; partition p holds LUT rows
     * [p * rowsPerPartition, (p+1) * rowsPerPartition).
     */
    std::vector<dram::SubarrayAddress> partitions;
    /** First row used inside each partition subarray. */
    RowIndex baseRow = 0;
    /** LUT rows per partition. */
    u32 rowsPerPartition = 0;
    /** False once a GSA sweep destroyed the resident copy. */
    bool loaded = false;
    /** How many times this placement has been (re)loaded. */
    u64 loadCount = 0;

    /** @return number of partitions. */
    u32 partitionCount() const
    {
        return static_cast<u32>(partitions.size());
    }
};

/** Owns all LutPlacements of a device and performs loading. */
class LutStore
{
  public:
    LutStore(dram::Module &mod, dram::CommandScheduler &sched,
             LutLoadModel model = {});

    /**
     * Place `lut` into the given subarrays (one per partition) and
     * load it with `method`. The number of subarrays must equal
     * ceil(lut.size() / rowsPerSubarray) unless an explicit partition
     * count is forced by passing more subarrays.
     *
     * @return index of the new placement.
     */
    u32 place(Lut lut, const std::vector<dram::SubarrayAddress> &subarrays,
              LutLoadMethod method = LutLoadMethod::FromMemory,
              RowIndex base_row = 0);

    /** @return placement `idx`. */
    LutPlacement &placement(u32 idx);
    const LutPlacement &placement(u32 idx) const;

    /** @return number of placements. */
    u32 size() const { return static_cast<u32>(placements_.size()); }

    /**
     * (Re)load a placement: charge the loading cost of its replicated
     * row image and mark it loaded. Used at placement time.
     */
    void load(LutPlacement &p, LutLoadMethod method);

    /** Minimum partitions needed for `lut` under geometry `g`. */
    static u32 partitionsFor(const Lut &lut, const dram::Geometry &g);

    /** @return the loading model. */
    const LutLoadModel &model() const { return model_; }

  private:
    dram::Module &mod_;
    dram::CommandScheduler &sched_;
    LutLoadModel model_;
    std::vector<std::unique_ptr<LutPlacement>> placements_;
};

} // namespace pluto::core

#endif // PLUTO_PLUTO_LUT_STORE_HH
