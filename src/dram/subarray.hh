/**
 * @file
 * Functional model of a DRAM subarray: a 2-D array of cells organized
 * as rows, plus a local row buffer. Row storage is allocated lazily;
 * untouched rows read as all-zero, so paper-scale geometries (8 GB
 * modules) can be modeled without allocating 8 GB.
 *
 * A subarray holds data rows only. LUT rows are not stored here: a
 * LUT's contents are its Lut values, and pLUTo-GSA's destructive
 * sweeps (Section 5.2.1) are tracked by `LutPlacement::loaded`.
 */

#ifndef PLUTO_DRAM_SUBARRAY_HH
#define PLUTO_DRAM_SUBARRAY_HH

#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace pluto::dram
{

/** One DRAM subarray: rowsPerSubarray rows of rowBytes bytes. */
class Subarray
{
  public:
    Subarray(u32 rows, u32 row_bytes);

    /** @return number of rows. */
    u32 rows() const { return rows_; }

    /** @return bytes per row. */
    u32 rowBytes() const { return rowBytes_; }

    /**
     * Mutable access to a row's cells, allocating backing storage on
     * first touch.
     */
    std::span<u8> row(RowIndex idx);

    /** Read-only snapshot of a row (all-zero if never touched). */
    std::vector<u8> readRow(RowIndex idx) const;

    /**
     * Zero-copy view of a row's storage, or nullptr if the row was
     * never touched (reads as all-zero). The pointer stays valid
     * across later row() touches of other rows (node-based storage).
     */
    const u8 *rowData(RowIndex idx) const;

    /** Overwrite a row's contents (data must be rowBytes long). */
    void writeRow(RowIndex idx, std::span<const u8> data);

    /**
     * Intra-subarray copy (RowClone-FPM semantics, Section 2.2):
     * activate src, then dst, so the row buffer's contents latch into
     * dst.
     */
    void copyRow(RowIndex src, RowIndex dst);

  private:
    void checkRow(RowIndex idx) const;

    u32 rows_;
    u32 rowBytes_;
    /** Lazily allocated row storage. */
    std::unordered_map<RowIndex, std::vector<u8>> storage_;
};

} // namespace pluto::dram

#endif // PLUTO_DRAM_SUBARRAY_HH
