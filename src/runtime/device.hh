/**
 * @file
 * PlutoDevice: the public entry point of the library. It assembles
 * the full simulated system — DRAM module, command scheduler, the
 * enhanced-DRAM ops substrate, the LUT store, the query engine for
 * one pLUTo design, the LUT library, the allocator and the pLUTo
 * Controller — and exposes the pLUTo Library API (Section 6.2):
 * allocation (pluto_malloc), bulk LUT queries, in-DRAM bitwise and
 * shifting ops, and composed routines (api_pluto_add, api_pluto_mul,
 * api_pluto_bitcount).
 *
 * Every high-level call is emitted as a pLUTo ISA instruction and
 * executed through the Controller, so the ISA layer is exercised by
 * all workloads; startRecording()/stopRecording() expose the
 * instruction trace for inspection (Figure 5c-style disassembly).
 */

#ifndef PLUTO_RUNTIME_DEVICE_HH
#define PLUTO_RUNTIME_DEVICE_HH

#include <memory>
#include <optional>
#include <string>

#include "common/arena.hh"
#include "runtime/controller.hh"

namespace pluto::runtime
{

/** Handle to an allocated pLUTo vector (a row register). */
struct VecHandle
{
    i32 reg = -1;
    u64 elements = 0;
    u32 width = 0;
};

/** Handle to a loaded LUT (a subarray register). */
struct LutHandle
{
    i32 reg = -1;
    u32 lutSize = 0;
    u32 lutBitw = 0;
};

/** Device construction parameters. */
struct DeviceConfig
{
    dram::MemoryKind memory = dram::MemoryKind::Ddr4;
    core::Design design = core::Design::Bsa;
    /** Subarray-level parallelism; 0 = geometry default (16 / 512). */
    u32 salp = 0;
    /** Fraction of nominal tFAW to enforce (paper default: 0). */
    double fawScale = 0.0;
    /**
     * Model refresh interference (tRFC every tREFI, ~4.7% stretch on
     * DDR4). Off by default as in the paper; see the ablation bench.
     */
    bool modelRefresh = false;
    /** Override geometry (tests use Geometry::tiny()). */
    std::optional<dram::Geometry> geometry;
    /** LUT loading cost model. */
    core::LutLoadModel loadModel;
    /** How pluto_subarray_alloc loads LUT contents. */
    core::LutLoadMethod loadMethod = core::LutLoadMethod::FromMemory;
    /**
     * Scratch buffers for the functional hot paths. Campaign runners
     * pass one arena per worker thread so every device a worker
     * builds reuses the same grown buffers; nullptr gives the device
     * a private arena. Not part of a device's simulated identity
     * (cache keys ignore it). The arena must outlive the device and
     * may only be shared by devices driven from one thread.
     */
    ScratchArena *arena = nullptr;
};

/** Execution statistics snapshot. */
struct ExecStats
{
    TimeNs timeNs = 0.0;
    /**
     * Total energy: per-command energy plus the memory device's
     * background power (EnergyParams::backgroundPower) over the
     * elapsed time.
     */
    EnergyPj energyPj = 0.0;
    /** Per-command energy only. */
    EnergyPj commandEnergyPj = 0.0;
    StatSet counters;

    /** Energy in millijoules. */
    double energyMj() const { return energyPj * 1e-9; }
};

/** A complete simulated pLUTo system. */
class PlutoDevice
{
  public:
    explicit PlutoDevice(DeviceConfig cfg = {});
    ~PlutoDevice();

    PlutoDevice(const PlutoDevice &) = delete;
    PlutoDevice &operator=(const PlutoDevice &) = delete;

    /** @return the configuration this device was built with. */
    const DeviceConfig &config() const { return cfg_; }

    /** @return effective SALP lane count. */
    u32 salp() const;

    // ---- Allocation (pluto_malloc, Section 6.2) ----

    /** Allocate a vector of `elements` `width`-bit slots. */
    VecHandle alloc(u64 elements, u32 width);

    /**
     * Host write of element values into a vector, from element 0;
     * the rows past the values pack as zero.
     */
    void write(const VecHandle &v, std::span<const u64> values);

    /**
     * Ranged host write starting at element `first`, which must be a
     * multiple of the vector's slots per row (fatal otherwise). Only
     * the rows the values cover are rewritten.
     */
    void writeAt(const VecHandle &v, u64 first,
                 std::span<const u64> values);

    /** Host read of a vector's element values. */
    std::vector<u64> read(const VecHandle &v);

    /**
     * Ranged host read: fills `out` with the values starting at
     * row-aligned element `first` (fatal otherwise).
     */
    void readAt(const VecHandle &v, u64 first, std::span<u64> out);

    // ---- LUT management ----

    /** Load a standard library LUT by name (e.g. "add4", "crc8"). */
    LutHandle loadLut(const std::string &name);

    /** Register and load a custom LUT. */
    LutHandle loadLut(const core::Lut &lut);

    // ---- pLUTo ISA operations ----

    /** pluto_op: dst[i] = LUT[src[i]] for every element. */
    void lutOp(const VecHandle &dst, const VecHandle &src,
               const LutHandle &lut);

    /** pluto_not / pluto_and / pluto_or / pluto_xor (Ambit-backed). */
    void bitwiseNot(const VecHandle &dst, const VecHandle &src);
    void bitwiseAnd(const VecHandle &dst, const VecHandle &a,
                    const VecHandle &b);
    void bitwiseOr(const VecHandle &dst, const VecHandle &a,
                   const VecHandle &b);
    void bitwiseXor(const VecHandle &dst, const VecHandle &a,
                    const VecHandle &b);

    /** Cheap operand-packing OR (bare triple-row activation). */
    void mergeOr(const VecHandle &dst, const VecHandle &a,
                 const VecHandle &b);

    /** pluto_bit_shift_l/r, pluto_byte_shift_l/r (DRISA-backed). */
    void shiftLeftBits(const VecHandle &v, u32 bits);
    void shiftRightBits(const VecHandle &v, u32 bits);
    void shiftLeftBytes(const VecHandle &v, u32 bytes);
    void shiftRightBytes(const VecHandle &v, u32 bytes);

    /** pluto_move (LISA-backed row copy). */
    void move(const VecHandle &dst, const VecHandle &src);

    /**
     * Charge host-side (CPU) serial work, e.g. the CRC reduction the
     * paper keeps on the CPU (Section 8.2).
     */
    void hostWork(TimeNs ns, EnergyPj energy = 0.0);

    /**
     * Charge the timing/energy of `count` LUT queries against a
     * loaded LUT without functional execution, each a lock-step wave
     * of `parallel` lanes. Used by workloads whose data-dependent
     * table updates cannot be expressed as bulk queries (VMPC) and by
     * model-scale sweeps.
     */
    void lutOpTimedOnly(const LutHandle &lut, u64 count, u32 parallel);

    // ---- pLUTo Library composed routines (Section 6.2) ----

    /**
     * api_pluto_add: dst = a + b element-wise over `operand_bits`-bit
     * unsigned operands. All three vectors use 2*operand_bits slots;
     * operands live in the low bits. Expands to move + shift +
     * merge + pluto_op, the Figure 5 lowering.
     */
    void apiAdd(const VecHandle &dst, const VecHandle &a,
                const VecHandle &b, u32 operand_bits);

    /** api_pluto_mul: unsigned element-wise multiplication. */
    void apiMul(const VecHandle &dst, const VecHandle &a,
                const VecHandle &b, u32 operand_bits);

    /** Q-format (Q1.(n-1)) element-wise multiplication. */
    void apiMulQ(const VecHandle &dst, const VecHandle &a,
                 const VecHandle &b, u32 operand_bits);

    /** api_pluto_bitcount: dst[i] = popcount(src[i]). */
    void apiBitcount(const VecHandle &dst, const VecHandle &src,
                     u32 bits);

    /**
     * The scratch vector shaped like `like` that composed routines
     * reuse, allocated on first use.
     */
    VecHandle scratch(const VecHandle &like);

    /**
     * The handle of library LUT `name` that composed routines reuse
     * (e.g. "add4", "bc8"), loaded on first use. With scratch(), lets
     * a timed run pay a routine's one-time set-up before
     * resetStats() without running the routine.
     */
    LutHandle lutHandleFor(const std::string &name);

    // ---- Recording / statistics ----

    /** Begin recording executed instructions. */
    void startRecording();

    /** Stop recording; @return the recorded program. */
    isa::Program stopRecording();

    /** @return time/energy/counters accumulated so far. */
    ExecStats stats() const;

    /** Reset time/energy/counters (allocations are kept). */
    void resetStats();

    // ---- Component access (tests, benches, scenario runner) ----

    dram::Module &module();
    const dram::Module &module() const;
    dram::CommandScheduler &scheduler();
    const dram::CommandScheduler &scheduler() const;
    core::QueryEngine &engine();
    const core::QueryEngine &engine() const;
    core::LutStore &lutStore();
    const core::LutStore &lutStore() const;
    LutLibrary &library();
    const LutLibrary &library() const;
    Controller &controller();
    const Controller &controller() const;
    const dram::Geometry &geometry() const;

  private:
    i32 nextRowReg();
    i32 nextSaReg();
    void run(isa::Instruction instr);
    /**
     * The Figure 5 lowering shared by apiAdd/apiMul/apiMulQ: pack
     * (a << n) | b into a scratch vector, then one pluto_op against
     * library LUT `<lut_prefix><n>`. `api` names the routine in the
     * slot-width diagnostic.
     */
    void apiPacked(const char *api, const char *lut_prefix,
                   const VecHandle &dst, const VecHandle &a,
                   const VecHandle &b, u32 operand_bits);

    DeviceConfig cfg_;
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

// ---- Paper-styled free-function API (Section 6.2 naming) ----

/** pluto_malloc(size, bitwidth). */
VecHandle pluto_malloc(PlutoDevice &dev, u64 size, u32 bitwidth);

/** api_pluto_add(in1, in2, out, bitwidth). */
void api_pluto_add(PlutoDevice &dev, const VecHandle &in1,
                   const VecHandle &in2, const VecHandle &out,
                   u32 bitwidth);

/** api_pluto_mul(in1, in2, out, bitwidth). */
void api_pluto_mul(PlutoDevice &dev, const VecHandle &in1,
                   const VecHandle &in2, const VecHandle &out,
                   u32 bitwidth);

} // namespace pluto::runtime

#endif // PLUTO_RUNTIME_DEVICE_HH
