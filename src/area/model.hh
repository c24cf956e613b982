/**
 * @file
 * DRAM die area model (the CACTI-7 substitute for Section 8.4 /
 * Table 5). The base-die component areas are anchored to Table 5's
 * "Base DRAM" column; the per-design overheads follow the paper's
 * stated estimates: the matchline-controlled switch costs 20% of a
 * sense amplifier (GSA), switch + FF cost 60% of the SA area (BSA),
 * and the extra per-cell transistor costs 25% of the cell area (GMC).
 * The match logic, matchlines and row-decoder extensions are common
 * to all three designs.
 */

#ifndef PLUTO_AREA_MODEL_HH
#define PLUTO_AREA_MODEL_HH

#include <map>
#include <string>

#include "common/units.hh"
#include "dram/timing.hh"
#include "pluto/design.hh"

namespace pluto::area
{

/** Component-level area breakdown of one die configuration. */
struct AreaBreakdown
{
    std::map<std::string, AreaMm2> components;

    /** @return sum over components. */
    AreaMm2 total() const;

    /** @return overhead fraction relative to `base`. */
    double overheadVs(const AreaBreakdown &base) const;
};

/** Die-level area model. */
class AreaModel
{
  public:
    AreaModel();

    /** Unmodified DDR4 die (Table 5, "Base DRAM"). */
    AreaBreakdown baseline() const;

    /** Die with one pLUTo design's modifications. */
    AreaBreakdown forDesign(core::Design d) const;

    /**
     * Silicon area attributable to pLUTo for performance-per-area
     * normalization (Figure 8): the added area over the base die for
     * DDR4; for 3DS, the per-vault overhead the paper assumes
     * (4.4 mm^2 [11,48,67]) amortized over the vault count and 3D
     * density advantage (see EXPERIMENTS.md for the calibration).
     */
    AreaMm2 plutoOverheadArea(dram::MemoryKind kind,
                              core::Design d) const;

  private:
    // Base component areas (mm^2), Table 5.
    AreaMm2 cell_ = 45.23;
    AreaMm2 lwlDriver_ = 12.45;
    AreaMm2 senseAmp_ = 11.40;
    AreaMm2 rowDecoder_ = 0.16;
    AreaMm2 colDecoder_ = 0.01;
    AreaMm2 other_ = 0.99;
    // pLUTo additions common to all designs.
    AreaMm2 matchLogic_ = 4.61;
    AreaMm2 matchLines_ = 0.02;
    AreaMm2 rowDecoderPluto_ = 0.47;
};

} // namespace pluto::area

#endif // PLUTO_AREA_MODEL_HH
