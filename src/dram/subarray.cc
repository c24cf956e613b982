#include "dram/subarray.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pluto::dram
{

Subarray::Subarray(u32 rows, u32 row_bytes)
    : rows_(rows), rowBytes_(row_bytes)
{
    PLUTO_ASSERT(rows_ > 0 && rowBytes_ > 0);
}

void
Subarray::checkRow(RowIndex idx) const
{
    if (idx >= rows_)
        panic("row index %u out of range (subarray has %u rows)",
              idx, rows_);
}

std::span<u8>
Subarray::row(RowIndex idx)
{
    checkRow(idx);
    auto it = storage_.find(idx);
    if (it == storage_.end())
        it = storage_.emplace(idx, std::vector<u8>(rowBytes_, 0)).first;
    return it->second;
}

std::vector<u8>
Subarray::readRow(RowIndex idx) const
{
    checkRow(idx);
    const auto it = storage_.find(idx);
    if (it == storage_.end())
        return std::vector<u8>(rowBytes_, 0);
    return it->second;
}

const u8 *
Subarray::rowData(RowIndex idx) const
{
    checkRow(idx);
    const auto it = storage_.find(idx);
    return it == storage_.end() ? nullptr : it->second.data();
}

void
Subarray::writeRow(RowIndex idx, std::span<const u8> data)
{
    checkRow(idx);
    if (data.size() != rowBytes_)
        panic("writeRow size %zu != rowBytes %u", data.size(), rowBytes_);
    auto dst = row(idx);
    std::copy(data.begin(), data.end(), dst.begin());
}

void
Subarray::copyRow(RowIndex src, RowIndex dst)
{
    if (src == dst)
        return;
    const auto data = readRow(src);
    writeRow(dst, data);
}

} // namespace pluto::dram
