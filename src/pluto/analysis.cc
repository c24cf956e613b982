#include "pluto/analysis.hh"

#include "common/logging.hh"

namespace pluto::core
{

TimeNs
queryLatency(Design d, const dram::TimingParams &t, u32 n)
{
    PLUTO_ASSERT(n >= 1);
    switch (d) {
      case Design::Bsa:
        // (tRCD + tRP) x N: full activate + precharge per LUT row.
        return (t.tRCD + t.tRP) * n;
      case Design::Gsa:
        // LISA_RBM x N (reload the destroyed LUT) + tRCD x N + tRP.
        return t.lisaRbm * n + t.tRCD * n + t.tRP;
      case Design::Gmc:
        // Back-to-back activations, one final precharge.
        return t.tRCD * n + t.tRP;
    }
    panic("bad Design");
}

EnergyPj
queryEnergy(Design d, const dram::EnergyParams &e, u32 n)
{
    PLUTO_ASSERT(n >= 1);
    switch (d) {
      case Design::Bsa:
        return (e.eAct + e.ePre) * n;
      case Design::Gsa:
        return e.eLisa * n + e.eAct * n + e.ePre;
      case Design::Gmc:
        return e.eAct * e.gmcActDiscount * n + e.ePre;
    }
    panic("bad Design");
}

double
queryThroughputPerSec(Design d, const dram::TimingParams &t,
                      const dram::Geometry &g, u32 input_bit_width, u32 n)
{
    PLUTO_ASSERT(input_bit_width >= 1);
    const double queries =
        static_cast<double>(g.rowBits()) / input_bit_width;
    const TimeNs lat = queryLatency(d, t, n);
    return queries / (lat * 1e-9);
}

} // namespace pluto::core
