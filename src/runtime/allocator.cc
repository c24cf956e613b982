#include "runtime/allocator.hh"

#include "common/logging.hh"

namespace pluto::runtime
{

RowAllocator::RowAllocator(const dram::Geometry &geom, u32 salp)
    : geom_(geom), salp_(salp),
      dataPerBank_(geom.subarraysPerBank / 2)
{
    if (salp_ == 0)
        fatal("allocator: salp must be >= 1");
    const u32 pool = geom_.banks * dataPerBank_;
    if (salp_ > pool)
        fatal("allocator: salp %u exceeds data pool of %u subarrays "
              "(use the analytic query path for model-scale sweeps)",
              salp_, pool);
    laneCursor_.assign(salp_, 0);
}

dram::SubarrayAddress
RowAllocator::laneSubarray(u32 lane) const
{
    // Lane l -> bank (l mod banks), data subarray (l / banks).
    const BankIndex bank = lane % geom_.banks;
    const SubarrayIndex sub = lane / geom_.banks;
    return {bank, sub};
}

std::vector<dram::RowAddress>
RowAllocator::allocRows(u64 rows)
{
    std::vector<dram::RowAddress> out;
    out.reserve(rows);
    for (u64 i = 0; i < rows; ++i) {
        const u32 lane = static_cast<u32>(i % salp_);
        const auto sa = laneSubarray(lane);
        if (laneCursor_[lane] >= geom_.rowsPerSubarray)
            fatal("allocator: lane %u out of rows (%u used)", lane,
                  laneCursor_[lane]);
        out.push_back(sa.rowAt(laneCursor_[lane]++));
    }
    return out;
}

std::vector<dram::SubarrayAddress>
RowAllocator::allocLutSubarrays(u32 count)
{
    std::vector<dram::SubarrayAddress> out;
    out.reserve(count);
    const u32 lutPerBank = geom_.subarraysPerBank - dataPerBank_;
    const u32 pool = geom_.banks * lutPerBank;
    for (u32 i = 0; i < count; ++i) {
        if (lutCursor_ >= pool)
            fatal("allocator: out of LUT subarrays (%u allocated)",
                  lutCursor_);
        const BankIndex bank = lutCursor_ % geom_.banks;
        const SubarrayIndex sub =
            dataPerBank_ + lutCursor_ / geom_.banks;
        out.push_back({bank, sub});
        ++lutCursor_;
    }
    return out;
}

} // namespace pluto::runtime
