/**
 * @file
 * The pLUTo ISA (Section 6.1, Table 2): instructions that allocate
 * pLUTo registers, perform pLUTo Row Sweeps (pluto_op), and
 * manipulate data in-DRAM (bitwise logic [Ambit], bit-/byte-level
 * shifting [DRISA], and row movement [LISA]).
 *
 * Instructions name *pLUTo registers*: row registers ($prgN) identify
 * contiguously allocated DRAM rows used as LUT-query inputs/outputs;
 * subarray registers ($lut_rgN) identify LUT-holding subarrays.
 */

#ifndef PLUTO_ISA_INSTRUCTION_HH
#define PLUTO_ISA_INSTRUCTION_HH

#include <string>

#include "common/types.hh"

namespace pluto::isa
{

/** pLUTo ISA opcodes (Table 2). */
enum class Opcode
{
    /** pluto_row_alloc dst, size, bitwidth */
    RowAlloc,
    /** pluto_subarray_alloc dst, num_rows, lut_file */
    SubarrayAlloc,
    /** pluto_op dst, src, lut_subarr, lut_size, lut_bitw */
    LutOp,
    /** pluto_not dst, src1 */
    Not,
    /** pluto_and dst, src1, src2 */
    And,
    /** pluto_or dst, src1, src2 */
    Or,
    /** pluto_xor dst, src1, src2 */
    Xor,
    /**
     * Merge of two already-aligned operand rows via a bare
     * triple-row activation (the cheap pluto_or the compiler emits
     * for operand packing; Section 8.9).
     */
    MergeOr,
    /** pluto_bit_shift_l src, #N */
    BitShiftL,
    /** pluto_bit_shift_r src, #N */
    BitShiftR,
    /** pluto_byte_shift_l src, #N */
    ByteShiftL,
    /** pluto_byte_shift_r src, #N */
    ByteShiftR,
    /** pluto_move dst, src */
    Move,
};

/** @return mnemonic for `op` (as Instruction::str prints it). */
const char *opcodeName(Opcode op);

/** One pLUTo ISA instruction. */
struct Instruction
{
    Opcode op = Opcode::Move;

    /** Destination register (row register; subarray reg for allocs). */
    i32 dst = -1;
    /** First source row register. */
    i32 src1 = -1;
    /** Second source row register (binary bitwise ops). */
    i32 src2 = -1;
    /** LutOp: subarray register holding the LUT. */
    i32 lutReg = -1;

    /** RowAlloc: number of elements. */
    u64 size = 0;
    /** RowAlloc / LutOp: element bit width (lut_bitw). */
    u32 bitwidth = 0;
    /** LutOp / SubarrayAlloc: number of LUT elements (rows). */
    u32 lutSize = 0;
    /** Shifts: shift amount (bits or bytes). */
    u32 amount = 0;
    /** SubarrayAlloc: named LUT contents ("lut_file" reference). */
    std::string lutName;

    /** Disassemble to paper-style text (Figure 5c). */
    std::string str() const;
};

/** Factory helpers for well-formed instructions. */
Instruction makeRowAlloc(i32 dst, u64 size, u32 bitwidth);
Instruction makeSubarrayAlloc(i32 dst, u32 num_rows, std::string lut_name);
Instruction makeLutOp(i32 dst, i32 src, i32 lut_reg, u32 lut_size,
                      u32 lut_bitw);
Instruction makeBitwise(Opcode op, i32 dst, i32 src1, i32 src2 = -1);
Instruction makeShift(Opcode op, i32 reg, u32 amount);
Instruction makeMove(i32 dst, i32 src);

} // namespace pluto::isa

#endif // PLUTO_ISA_INSTRUCTION_HH
