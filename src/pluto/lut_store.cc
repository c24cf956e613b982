#include "pluto/lut_store.hh"

#include "common/logging.hh"

namespace pluto::core
{

TimeNs
LutLoadModel::loadTime(LutLoadMethod m, u64 rows, u64 row_bytes) const
{
    const double volume = static_cast<double>(rows * row_bytes);
    switch (m) {
      case LutLoadMethod::FromMemory:
        return volume / memoryBw;
      case LutLoadMethod::FromStorage:
        return volume / storageBw;
      case LutLoadMethod::FirstTimeGeneration:
        // Compute each distinct element once, then write the image.
        return generateNsPerElem * rows + volume / memoryBw;
    }
    panic("bad LutLoadMethod");
}

LutStore::LutStore(dram::Module &mod, dram::CommandScheduler &sched,
                   LutLoadModel model)
    : mod_(mod), sched_(sched), model_(model)
{
}

u32
LutStore::partitionsFor(const Lut &lut, const dram::Geometry &g)
{
    const u64 rows = lut.size();
    return static_cast<u32>((rows + g.rowsPerSubarray - 1) /
                            g.rowsPerSubarray);
}

u32
LutStore::place(Lut lut, const std::vector<dram::SubarrayAddress> &subarrays,
                LutLoadMethod method, RowIndex base_row)
{
    if (subarrays.empty())
        fatal("LUT '%s': placement needs at least one subarray",
              lut.name().c_str());
    const u64 rows = lut.size();
    if (rows % subarrays.size() != 0)
        fatal("LUT '%s': %llu rows do not divide across %zu partitions",
              lut.name().c_str(), static_cast<unsigned long long>(rows),
              subarrays.size());
    const u64 per = rows / subarrays.size();
    const auto &geom = mod_.geometry();
    if (base_row + per > geom.rowsPerSubarray)
        fatal("LUT '%s': %llu rows/partition at base %u exceed subarray "
              "height %u",
              lut.name().c_str(), static_cast<unsigned long long>(per),
              base_row, geom.rowsPerSubarray);

    auto p = std::make_unique<LutPlacement>(std::move(lut));
    p->partitions = subarrays;
    p->baseRow = base_row;
    p->rowsPerPartition = static_cast<u32>(per);
    load(*p, method);
    placements_.push_back(std::move(p));
    return static_cast<u32>(placements_.size() - 1);
}

LutPlacement &
LutStore::placement(u32 idx)
{
    PLUTO_ASSERT(idx < placements_.size());
    return *placements_[idx];
}

const LutPlacement &
LutStore::placement(u32 idx) const
{
    PLUTO_ASSERT(idx < placements_.size());
    return *placements_[idx];
}

void
LutStore::load(LutPlacement &p, LutLoadMethod method)
{
    const auto &geom = mod_.geometry();
    // Charge the loading cost: the full subarray image crosses the
    // channel (or is generated) once.
    const TimeNs t = model_.loadTime(method, p.lut.size(), geom.rowBytes);
    const EnergyPj e = static_cast<double>(p.lut.size()) * geom.rowBytes *
                       sched_.energyParams().eIoPerByte;
    sched_.op("pluto.lut_load", t, e);
    sched_.stats().add("pluto.lut_load.bytes",
                       static_cast<double>(p.lut.size()) * geom.rowBytes);
    p.loaded = true;
    ++p.loadCount;
}

} // namespace pluto::core
