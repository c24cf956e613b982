/**
 * @file
 * Host-system specs (the substitutes for the paper's measured CPU
 * and GPU baselines, Section 7.1).
 *
 * The paper's performance claims are relative, so each baseline is an
 * analytic model: a workload supplies a per-element execution rate
 * (ns/element, documented per workload with its derivation), and the
 * system spec supplies the power drawn while executing and the die
 * area for performance-per-area normalization (Figure 8). The
 * specs' power values are *effective active* powers calibrated so
 * the energy-ratio geomeans land near the paper's (Figure 10): CPU
 * ~30 W of package power attributable to the workload, GPU ~350 W
 * board power.
 */

#ifndef PLUTO_BASELINES_SYSTEMS_HH
#define PLUTO_BASELINES_SYSTEMS_HH

#include <string>

#include "common/units.hh"

namespace pluto::baselines
{

/** Static description of a host system. */
struct HostSpec
{
    std::string name;
    /** Effective active power while running the workload (W). */
    PowerW power = 0.0;
    /** Die area for performance-per-area normalization (mm^2). */
    AreaMm2 dieArea = 0.0;
};

/** Intel Xeon Gold 5118-class CPU with SSE (the paper's [103]). */
HostSpec cpuSpec();

/** NVIDIA RTX 3080 Ti-class GPU (the paper's [104]). */
HostSpec gpuSpec();

} // namespace pluto::baselines

#endif // PLUTO_BASELINES_SYSTEMS_HH
