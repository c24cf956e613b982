#include "isa/instruction.hh"

#include <cstdio>

#include "common/logging.hh"

namespace pluto::isa
{

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::RowAlloc:
        return "pluto_row_alloc";
      case Opcode::SubarrayAlloc:
        return "pluto_subarray_alloc";
      case Opcode::LutOp:
        return "pluto_op";
      case Opcode::Not:
        return "pluto_not";
      case Opcode::And:
        return "pluto_and";
      case Opcode::Or:
        return "pluto_or";
      case Opcode::Xor:
        return "pluto_xor";
      case Opcode::MergeOr:
        return "pluto_merge_or";
      case Opcode::BitShiftL:
        return "pluto_bit_shift_l";
      case Opcode::BitShiftR:
        return "pluto_bit_shift_r";
      case Opcode::ByteShiftL:
        return "pluto_byte_shift_l";
      case Opcode::ByteShiftR:
        return "pluto_byte_shift_r";
      case Opcode::Move:
        return "pluto_move";
    }
    panic("bad Opcode");
}

std::string
Instruction::str() const
{
    char buf[160];
    switch (op) {
      case Opcode::RowAlloc:
        std::snprintf(buf, sizeof(buf), "%s $prg%d, %llu, %u",
                      opcodeName(op), dst,
                      static_cast<unsigned long long>(size), bitwidth);
        break;
      case Opcode::SubarrayAlloc:
        std::snprintf(buf, sizeof(buf), "%s $lut_rg%d, \"%s\" (%u rows)",
                      opcodeName(op), dst, lutName.c_str(), lutSize);
        break;
      case Opcode::LutOp:
        std::snprintf(buf, sizeof(buf), "%s $prg%d, $prg%d, $lut_rg%d, "
                      "%u, %u",
                      opcodeName(op), dst, src1, lutReg, lutSize,
                      bitwidth);
        break;
      case Opcode::Not:
        std::snprintf(buf, sizeof(buf), "%s $prg%d, $prg%d",
                      opcodeName(op), dst, src1);
        break;
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::MergeOr:
        std::snprintf(buf, sizeof(buf), "%s $prg%d, $prg%d, $prg%d",
                      opcodeName(op), dst, src1, src2);
        break;
      case Opcode::BitShiftL:
      case Opcode::BitShiftR:
      case Opcode::ByteShiftL:
      case Opcode::ByteShiftR:
        std::snprintf(buf, sizeof(buf), "%s $prg%d, #%u",
                      opcodeName(op), dst, amount);
        break;
      case Opcode::Move:
        std::snprintf(buf, sizeof(buf), "%s $prg%d, $prg%d",
                      opcodeName(op), dst, src1);
        break;
    }
    return buf;
}

Instruction
makeRowAlloc(i32 dst, u64 size, u32 bitwidth)
{
    Instruction i;
    i.op = Opcode::RowAlloc;
    i.dst = dst;
    i.size = size;
    i.bitwidth = bitwidth;
    return i;
}

Instruction
makeSubarrayAlloc(i32 dst, u32 num_rows, std::string lut_name)
{
    Instruction i;
    i.op = Opcode::SubarrayAlloc;
    i.dst = dst;
    i.lutSize = num_rows;
    i.lutName = std::move(lut_name);
    return i;
}

Instruction
makeLutOp(i32 dst, i32 src, i32 lut_reg, u32 lut_size, u32 lut_bitw)
{
    Instruction i;
    i.op = Opcode::LutOp;
    i.dst = dst;
    i.src1 = src;
    i.lutReg = lut_reg;
    i.lutSize = lut_size;
    i.bitwidth = lut_bitw;
    return i;
}

Instruction
makeBitwise(Opcode op, i32 dst, i32 src1, i32 src2)
{
    Instruction i;
    i.op = op;
    i.dst = dst;
    i.src1 = src1;
    i.src2 = src2;
    return i;
}

Instruction
makeShift(Opcode op, i32 reg, u32 amount)
{
    Instruction i;
    i.op = op;
    i.dst = reg;
    i.src1 = reg;
    i.amount = amount;
    return i;
}

Instruction
makeMove(i32 dst, i32 src)
{
    Instruction i;
    i.op = Opcode::Move;
    i.dst = dst;
    i.src1 = src;
    return i;
}

} // namespace pluto::isa
