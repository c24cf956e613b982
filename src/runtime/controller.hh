/**
 * @file
 * The pLUTo Controller (Section 6.4): a modified memory controller
 * that decodes pLUTo ISA instructions and drives the DRAM command
 * stream. Its internal "ROM" maps each ISA instruction to a
 * predefined sequence of substrate operations (Ambit AAPs, DRISA
 * shifts, LISA moves) or to a pLUTo Row Sweep, and its register file
 * tracks row/subarray register allocations.
 *
 * One deviation from the paper's description, for tractability: a row
 * register here names a whole allocated vector (possibly many DRAM
 * rows), and pluto_op on it expands into one Row Sweep per input row,
 * batched into SALP waves of `salp` lock-step lanes. The paper
 * instead emits ceil(S / row size) pluto_op instructions; the command
 * stream reaching DRAM is identical.
 */

#ifndef PLUTO_RUNTIME_CONTROLLER_HH
#define PLUTO_RUNTIME_CONTROLLER_HH

#include <map>
#include <span>
#include <vector>

#include "isa/program.hh"
#include "ops/indram_ops.hh"
#include "pluto/query_engine.hh"
#include "runtime/allocator.hh"
#include "runtime/lut_library.hh"

namespace pluto::runtime
{

/** A row register's backing allocation: a vector of DRAM rows. */
struct RowSet
{
    /** Logical element count. */
    u64 elements = 0;
    /** Element slot width in bits. */
    u32 width = 0;
    /** Backing rows, row i on lane (i mod salp). */
    std::vector<dram::RowAddress> rows;
    /** Element slots per row. */
    u64 slotsPerRow = 0;
};

/** Decodes and executes pLUTo ISA instructions. */
class Controller
{
  public:
    Controller(dram::Module &mod, dram::CommandScheduler &sched,
               ops::InDramOps &ops, core::LutStore &store,
               core::QueryEngine &engine, LutLibrary &library,
               RowAllocator &alloc,
               core::LutLoadMethod load_method =
                   core::LutLoadMethod::FromMemory);

    /** Execute one instruction. */
    void execute(const isa::Instruction &instr);

    /** Execute a whole program (validates first). */
    void execute(const isa::Program &prog);

    /** @return the RowSet bound to row register `reg`. */
    const RowSet &rowSet(i32 reg) const;

    /** @return the LutPlacement bound to subarray register `reg`. */
    core::LutPlacement &lutPlacement(i32 reg);

    /**
     * Host-side write of packed element values into a row register:
     * the values fill it from element 0 and every row past them
     * packs as zero. PuM inputs are assumed DRAM-resident (the
     * paper's kernels time in-memory execution), so no channel cost
     * is charged.
     */
    void writeValues(i32 reg, std::span<const u64> values);

    /**
     * Ranged host-side write starting at element `first`, which must
     * be row-aligned: rewrites only the rows the values cover, and
     * the unused slots of a partial last row pack as zero.
     */
    void writeValuesAt(i32 reg, u64 first, std::span<const u64> values);

    /** Host-side read-back of a row register's element values. */
    std::vector<u64> readValues(i32 reg);

    /**
     * Host-side read-back into a caller buffer (no allocation): fills
     * `out` with the element values starting at row-aligned element
     * `first`.
     */
    void readValuesAt(i32 reg, u64 first, std::span<u64> out);

    /** @return the configured SALP wave width. */
    u32 salp() const { return alloc_.salp(); }

  private:
    void execRowAlloc(const isa::Instruction &i);
    void execSubarrayAlloc(const isa::Instruction &i);
    void execLutOp(const isa::Instruction &i);
    void execBitwise(const isa::Instruction &i);
    void execShift(const isa::Instruction &i);
    void execMove(const isa::Instruction &i);

    /** Check two registers describe compatible vectors. */
    void checkCompatible(const RowSet &a, const RowSet &b,
                         const char *what) const;

    /**
     * The RowSet of `reg` for a ranged host transfer of `count`
     * values at element `first`; fatal unless the register exists,
     * `first` is row-aligned and the range fits the allocation.
     */
    const RowSet &transferSet(const char *what, i32 reg, u64 first, u64 count);

    dram::Module &mod_;
    dram::CommandScheduler &sched_;
    ops::InDramOps &ops_;
    core::LutStore &store_;
    core::QueryEngine &engine_;
    LutLibrary &library_;
    RowAllocator &alloc_;
    core::LutLoadMethod loadMethod_;

    std::map<i32, RowSet> rowRegs_;
    std::map<i32, u32> saRegs_;

    /**
     * Grow-only wave staging buffers reused across instructions, so
     * the per-instruction decode loops never allocate in steady
     * state. Each is owned by exactly one exec* method and never
     * outlives the call.
     */
    std::vector<core::QueryPair> waveQuery_;
    std::vector<ops::RowPair> wavePairs_;
    std::vector<ops::RowTriple> waveTriples_;
    std::vector<dram::RowAddress> waveRows_;
};

} // namespace pluto::runtime

#endif // PLUTO_RUNTIME_CONTROLLER_HH
