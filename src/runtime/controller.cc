#include "runtime/controller.hh"

#include <algorithm>

#include "common/bitvec.hh"
#include "common/bitvec_bulk.hh"
#include "common/logging.hh"

namespace pluto::runtime
{

Controller::Controller(dram::Module &mod, dram::CommandScheduler &sched,
                       ops::InDramOps &ops, core::LutStore &store,
                       core::QueryEngine &engine, LutLibrary &library,
                       RowAllocator &alloc, core::LutLoadMethod load_method)
    : mod_(mod), sched_(sched), ops_(ops), store_(store), engine_(engine),
      library_(library), alloc_(alloc), loadMethod_(load_method)
{
}

void
Controller::execute(const isa::Program &prog)
{
    const std::string err = prog.validate();
    if (!err.empty())
        fatal("invalid pLUTo program: %s", err.c_str());
    for (const auto &i : prog.instructions())
        execute(i);
}

void
Controller::execute(const isa::Instruction &instr)
{
    using isa::Opcode;
    switch (instr.op) {
      case Opcode::RowAlloc:
        execRowAlloc(instr);
        break;
      case Opcode::SubarrayAlloc:
        execSubarrayAlloc(instr);
        break;
      case Opcode::LutOp:
        execLutOp(instr);
        break;
      case Opcode::Not:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::MergeOr:
        execBitwise(instr);
        break;
      case Opcode::BitShiftL:
      case Opcode::BitShiftR:
      case Opcode::ByteShiftL:
      case Opcode::ByteShiftR:
        execShift(instr);
        break;
      case Opcode::Move:
        execMove(instr);
        break;
    }
    sched_.stats().inc("isa.instructions");
}

void
Controller::execRowAlloc(const isa::Instruction &i)
{
    if (rowRegs_.count(i.dst))
        fatal("row register $prg%d reallocated", i.dst);
    if (!isSupportedElementWidth(i.bitwidth))
        fatal("pluto_row_alloc: unsupported bit width %u", i.bitwidth);
    RowSet set;
    set.elements = i.size;
    set.width = i.bitwidth;
    set.slotsPerRow =
        elementsPerBytes(mod_.geometry().rowBytes, i.bitwidth);
    const u64 rows =
        (i.size + set.slotsPerRow - 1) / set.slotsPerRow;
    set.rows = alloc_.allocRows(std::max<u64>(rows, 1));
    rowRegs_.emplace(i.dst, std::move(set));
}

void
Controller::execSubarrayAlloc(const isa::Instruction &i)
{
    if (saRegs_.count(i.dst))
        fatal("subarray register $lut_rg%d reallocated", i.dst);
    core::Lut lut = library_.get(i.lutName);
    if (i.lutSize != 0 && i.lutSize != lut.size())
        fatal("pluto_subarray_alloc: num_rows %u != LUT '%s' size %llu",
              i.lutSize, i.lutName.c_str(),
              static_cast<unsigned long long>(lut.size()));
    const u32 parts =
        core::LutStore::partitionsFor(lut, mod_.geometry());
    const auto subs = alloc_.allocLutSubarrays(parts);
    const u32 idx = store_.place(std::move(lut), subs, loadMethod_);
    saRegs_.emplace(i.dst, idx);
}

void
Controller::checkCompatible(const RowSet &a, const RowSet &b,
                            const char *what) const
{
    if (a.rows.size() != b.rows.size() || a.width != b.width)
        fatal("%s: incompatible row registers (%zu rows/%u bits vs "
              "%zu rows/%u bits)",
              what, a.rows.size(), a.width, b.rows.size(), b.width);
}

void
Controller::execLutOp(const isa::Instruction &i)
{
    auto &src = rowRegs_.at(i.src1);
    auto &dst = rowRegs_.at(i.dst);
    auto &p = lutPlacement(i.lutReg);
    if (src.rows.size() != dst.rows.size())
        fatal("pluto_op: src has %zu rows, dst %zu", src.rows.size(),
              dst.rows.size());
    if (i.bitwidth != p.lut.elemBits())
        fatal("pluto_op: lut_bitw %u != LUT '%s' element width %u",
              i.bitwidth, p.lut.name().c_str(), p.lut.elemBits());
    if (i.lutSize != p.lut.size())
        fatal("pluto_op: lut_size %u != LUT '%s' size %llu", i.lutSize,
              p.lut.name().c_str(),
              static_cast<unsigned long long>(p.lut.size()));
    if (src.width != p.lut.elemBits() || dst.width != p.lut.elemBits())
        fatal("pluto_op: register width (%u/%u) != lut_bitw %u",
              src.width, dst.width, p.lut.elemBits());

    const u32 salp = alloc_.salp();
    auto &wave = waveQuery_;
    wave.clear();
    wave.reserve(salp);
    for (std::size_t r = 0; r < src.rows.size(); ++r) {
        wave.emplace_back(src.rows[r], dst.rows[r]);
        if (wave.size() == salp) {
            engine_.queryWave(p, wave);
            wave.clear();
        }
    }
    if (!wave.empty())
        engine_.queryWave(p, wave);
    sched_.stats().add("isa.pluto_op_rows",
                       static_cast<double>(src.rows.size()));
}

void
Controller::execBitwise(const isa::Instruction &i)
{
    using isa::Opcode;
    auto &dst = rowRegs_.at(i.dst);
    auto &a = rowRegs_.at(i.src1);
    checkCompatible(a, dst, "bitwise");

    const u32 salp = alloc_.salp();
    if (i.op == Opcode::Not) {
        auto &wave = wavePairs_;
        wave.clear();
        for (std::size_t r = 0; r < a.rows.size(); ++r) {
            wave.emplace_back(a.rows[r], dst.rows[r]);
            if (wave.size() == salp) {
                ops_.bitwiseNot(wave);
                wave.clear();
            }
        }
        ops_.bitwiseNot(wave);
        return;
    }

    auto &b = rowRegs_.at(i.src2);
    checkCompatible(b, dst, "bitwise");
    auto &wave = waveTriples_;
    wave.clear();
    auto flush = [&] {
        if (wave.empty())
            return;
        switch (i.op) {
          case Opcode::And:
            ops_.bitwise(ops::BitwiseOp::And, wave);
            break;
          case Opcode::Or:
            ops_.bitwise(ops::BitwiseOp::Or, wave);
            break;
          case Opcode::Xor:
            ops_.bitwise(ops::BitwiseOp::Xor, wave);
            break;
          case Opcode::MergeOr:
            ops_.traOr(wave);
            break;
          default:
            panic("unexpected bitwise opcode");
        }
        wave.clear();
    };
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        wave.push_back({a.rows[r], b.rows[r], dst.rows[r]});
        if (wave.size() == salp)
            flush();
    }
    flush();
}

void
Controller::execShift(const isa::Instruction &i)
{
    using isa::Opcode;
    auto &set = rowRegs_.at(i.dst);
    const u32 bits =
        (i.op == Opcode::ByteShiftL || i.op == Opcode::ByteShiftR)
            ? i.amount * 8
            : i.amount;
    const bool left =
        i.op == Opcode::BitShiftL || i.op == Opcode::ByteShiftL;
    const u32 salp = alloc_.salp();
    auto &wave = waveRows_;
    wave.clear();
    auto flush = [&] {
        if (wave.empty())
            return;
        if (left)
            ops_.shiftLeft(wave, bits);
        else
            ops_.shiftRight(wave, bits);
        wave.clear();
    };
    for (const auto &row : set.rows) {
        wave.push_back(row);
        if (wave.size() == salp)
            flush();
    }
    flush();
}

void
Controller::execMove(const isa::Instruction &i)
{
    auto &src = rowRegs_.at(i.src1);
    auto &dst = rowRegs_.at(i.dst);
    checkCompatible(src, dst, "pluto_move");
    const u32 salp = alloc_.salp();
    auto &wave = wavePairs_;
    wave.clear();
    for (std::size_t r = 0; r < src.rows.size(); ++r) {
        wave.emplace_back(src.rows[r], dst.rows[r]);
        if (wave.size() == salp) {
            ops_.lisaCopy(wave);
            wave.clear();
        }
    }
    ops_.lisaCopy(wave);
}

const RowSet &
Controller::rowSet(i32 reg) const
{
    const auto it = rowRegs_.find(reg);
    if (it == rowRegs_.end())
        fatal("row register $prg%d not allocated", reg);
    return it->second;
}

core::LutPlacement &
Controller::lutPlacement(i32 reg)
{
    const auto it = saRegs_.find(reg);
    if (it == saRegs_.end())
        fatal("subarray register $lut_rg%d not allocated", reg);
    return store_.placement(it->second);
}

const RowSet &
Controller::transferSet(const char *what, i32 reg, u64 first, u64 count)
{
    const auto it = rowRegs_.find(reg);
    if (it == rowRegs_.end())
        fatal("row register $prg%d not allocated", reg);
    auto &set = it->second;
    if (first % set.slotsPerRow != 0)
        fatal("%s: first element %llu is not row-aligned (%llu slots "
              "per row)",
              what, static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(set.slotsPerRow));
    if (first > set.elements || count > set.elements - first)
        fatal("%s: %llu values at element %llu > %llu allocated", what,
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(set.elements));
    return set;
}

void
Controller::writeValues(i32 reg, std::span<const u64> values)
{
    writeValuesAt(reg, 0, values);
    const auto &set = rowRegs_.at(reg);
    const u64 written =
        (values.size() + set.slotsPerRow - 1) / set.slotsPerRow;
    for (u64 r = written; r < set.rows.size(); ++r) {
        auto row = mod_.rowAt(set.rows[r]);
        std::fill(row.begin(), row.end(), 0);
    }
}

void
Controller::writeValuesAt(i32 reg, u64 first, std::span<const u64> values)
{
    const auto &set = transferSet("write", reg, first, values.size());
    const u64 row0 = first / set.slotsPerRow;
    for (u64 base = 0; base < values.size(); base += set.slotsPerRow) {
        auto row = mod_.rowAt(set.rows[row0 + base / set.slotsPerRow]);
        const u64 count =
            std::min<u64>(set.slotsPerRow, values.size() - base);
        bulk::packBulk(values.subspan(base, count), set.width, row);
        // Unused slots pack as zero, as the scalar path did.
        const u64 used = (count * set.width + 7) / 8;
        std::fill(row.begin() + static_cast<std::ptrdiff_t>(used),
                  row.end(), 0);
    }
}

std::vector<u64>
Controller::readValues(i32 reg)
{
    std::vector<u64> out(rowSet(reg).elements);
    readValuesAt(reg, 0, out);
    return out;
}

void
Controller::readValuesAt(i32 reg, u64 first, std::span<u64> out)
{
    const auto &set = transferSet("read", reg, first, out.size());
    const u64 row0 = first / set.slotsPerRow;
    for (u64 base = 0; base < out.size(); base += set.slotsPerRow) {
        const u64 count = std::min<u64>(set.slotsPerRow, out.size() - base);
        bulk::unpackBulk(
            mod_.peekRow(set.rows[row0 + base / set.slotsPerRow]),
            set.width, out.subspan(base, count));
    }
}

} // namespace pluto::runtime
