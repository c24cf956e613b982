/**
 * @file
 * Workload interface for the paper's evaluation (Table 4): every
 * workload runs end-to-end on a PlutoDevice (through the ISA and the
 * query engine), verifies its result against a host reference
 * implementation, and carries the analytic baseline rates used for
 * Figures 7-10 comparisons.
 *
 * Baseline rates are ns per element on each host system. They are the
 * substitution for the paper's measured CPU/GPU/FPGA and simulated
 * PnM baselines; each workload documents its rates' derivation. Our
 * CPU model is charitable to the CPU relative to the paper's measured
 * baselines (see EXPERIMENTS.md), which compresses absolute speedups
 * while preserving orderings.
 */

#ifndef PLUTO_WORKLOADS_WORKLOAD_HH
#define PLUTO_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "baselines/systems.hh"
#include "runtime/device.hh"

namespace pluto::workloads
{

/** ns-per-element rates of the four host baselines. */
struct BaselineRates
{
    double cpu = 0.0;
    double gpu = 0.0;
    double fpga = 0.0;
    double pnm = 0.0;
};

/** Outcome of one workload execution. */
struct WorkloadResult
{
    /** Elements (usually bytes) processed. */
    u64 elements = 0;
    /** Simulated pLUTo execution time. */
    TimeNs timeNs = 0.0;
    /** Simulated pLUTo energy (incl. background power). */
    EnergyPj energyPj = 0.0;
    /**
     * Host-side serial portion of timeNs (e.g. the CRC combine);
     * this part does not scale with subarray-level parallelism.
     */
    TimeNs hostNs = 0.0;
    /** Functional verification against the reference passed. */
    bool verified = false;

    /** ns per element. */
    double nsPerElem() const
    {
        return elements ? timeNs / static_cast<double>(elements) : 0.0;
    }

    /** pJ per element. */
    double pjPerElem() const
    {
        return elements ? energyPj / static_cast<double>(elements) : 0.0;
    }
};

/** One evaluated workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Display name ("CRC-8", "Salsa20", ...). */
    virtual std::string name() const = 0;

    /** Default element count for device `kind` (paper-scale input). */
    virtual u64 defaultElements(dram::MemoryKind kind) const = 0;

    /** Host baseline rates (ns/element) with documented derivations. */
    virtual BaselineRates rates() const = 0;

    /**
     * Execute on `dev` over `elements` elements. Implementations
     * must: load LUTs before resetting stats (kernel time excludes
     * LUT loading; Figure 11 studies it separately), execute through
     * the device API, and verify functionally where the bulk-query
     * model permits. `seed` perturbs the stochastic input generation
     * (scenario `sweep seed = ...` grids); seed 0 reproduces the
     * historical fixed inputs exactly.
     *
     * Host memory stays bounded as `elements` grows: inputs are
     * generated and written, and outputs read back and checked, in
     * row-aligned chunks (workloads/chunked.hh), with the reference
     * recomputed per chunk (e.g. by replaying a saved copy of the
     * seeded Rng). No implementation keeps a per-element host
     * vector of its inputs, outputs or expected results.
     */
    virtual WorkloadResult run(runtime::PlutoDevice &dev, u64 elements,
                               u64 seed = 0) const = 0;

    /** Run at the default scale for the device's memory kind. */
    WorkloadResult
    runDefault(runtime::PlutoDevice &dev) const
    {
        return run(dev, defaultElements(dev.config().memory));
    }
};

/**
 * Fold a scenario seed into a workload's fixed base Rng seed. Seed 0
 * maps to the base itself, keeping default inputs identical to the
 * pre-seed engine.
 */
inline u64
mixSeed(u64 base, u64 seed)
{
    return base ^ (seed * 0x9e3779b97f4a7c15ULL);
}

using WorkloadPtr = std::unique_ptr<Workload>;

/** The Figure 7 / 8 / 10 / 13 workload set. */
std::vector<WorkloadPtr> figure7Workloads();

/** The Figure 9 (FPGA comparison) workload set. */
std::vector<WorkloadPtr> figure9Workloads();

/**
 * Build one workload by name; @return nullptr for unknown names (the
 * scenario engine reports these as configuration errors).
 */
WorkloadPtr createWorkload(const std::string &name);

/** Build one workload by name; fatal on unknown names. */
WorkloadPtr makeWorkload(const std::string &name);

/** All registered workload names, in registry order. */
std::vector<std::string> workloadNames();

/** "A, B, C" join of all registered names (for error messages). */
std::string workloadNamesJoined();

// Factories (one per Table 4 row).
WorkloadPtr makeImageBinarization();
WorkloadPtr makeColorGrade();
WorkloadPtr makeCrc(u32 width);
WorkloadPtr makeSalsa20();
WorkloadPtr makeVmpc();
WorkloadPtr makeVectorAdd(u32 operand_bits);
WorkloadPtr makeVectorMul(u32 operand_bits);
WorkloadPtr makeVectorMulQ(u32 operand_bits);
WorkloadPtr makeBitCount(u32 bits);
WorkloadPtr makeBitwise(const std::string &kind);

} // namespace pluto::workloads

#endif // PLUTO_WORKLOADS_WORKLOAD_HH
