#include "runtime/device.hh"

#include <map>

#include "common/logging.hh"

namespace pluto::runtime
{

struct PlutoDevice::Impl
{
    Impl(const DeviceConfig &cfg)
        : geom(cfg.geometry ? *cfg.geometry
                            : dram::Geometry::forKind(cfg.memory)),
          timing(dram::TimingParams::forKind(cfg.memory)),
          energy(dram::EnergyParams::forKind(cfg.memory)),
          module(geom),
          sched(timing, energy, cfg.fawScale),
          ops(module, sched),
          store(module, sched, cfg.loadModel),
          engine(module, sched, cfg.design,
                 cfg.arena ? cfg.arena : &ownArena),
          alloc(geom, cfg.salp ? cfg.salp : geom.defaultSalp),
          controller(module, sched, ops, store, engine, library, alloc,
                     cfg.loadMethod)
    {
        sched.setModelRefresh(cfg.modelRefresh);
    }

    /** Fallback when DeviceConfig::arena is not provided. */
    ScratchArena ownArena;
    dram::Geometry geom;
    dram::TimingParams timing;
    dram::EnergyParams energy;
    dram::Module module;
    dram::CommandScheduler sched;
    ops::InDramOps ops;
    core::LutStore store;
    core::QueryEngine engine;
    LutLibrary library;
    RowAllocator alloc;
    Controller controller;

    i32 rowRegs = 0;
    i32 saRegs = 0;
    bool recording = false;
    isa::Program recorded;
    /** Per-width scratch vectors reused by composed routines. */
    std::map<std::pair<u64, u32>, VecHandle> scratchPool;
    /** Named LUT handles reused by composed routines. */
    std::map<std::string, LutHandle> lutHandles;
};

PlutoDevice::PlutoDevice(DeviceConfig cfg)
    : cfg_(cfg), impl_(std::make_unique<Impl>(cfg))
{
}

PlutoDevice::~PlutoDevice() = default;

u32
PlutoDevice::salp() const
{
    return impl_->alloc.salp();
}

i32
PlutoDevice::nextRowReg()
{
    return impl_->rowRegs++;
}

i32
PlutoDevice::nextSaReg()
{
    return impl_->saRegs++;
}

void
PlutoDevice::run(isa::Instruction instr)
{
    if (impl_->recording) {
        while (impl_->recorded.rowRegCount() < impl_->rowRegs)
            impl_->recorded.newRowReg();
        while (impl_->recorded.subarrayRegCount() < impl_->saRegs)
            impl_->recorded.newSubarrayReg();
        impl_->recorded.append(instr);
    }
    impl_->controller.execute(instr);
}

VecHandle
PlutoDevice::alloc(u64 elements, u32 width)
{
    VecHandle v;
    v.reg = nextRowReg();
    v.elements = elements;
    v.width = width;
    run(isa::makeRowAlloc(v.reg, elements, width));
    return v;
}

void
PlutoDevice::write(const VecHandle &v, std::span<const u64> values)
{
    impl_->controller.writeValues(v.reg, values);
}

void
PlutoDevice::writeAt(const VecHandle &v, u64 first,
                     std::span<const u64> values)
{
    impl_->controller.writeValuesAt(v.reg, first, values);
}

std::vector<u64>
PlutoDevice::read(const VecHandle &v)
{
    std::vector<u64> out(v.elements);
    readAt(v, 0, out);
    return out;
}

void
PlutoDevice::readAt(const VecHandle &v, u64 first, std::span<u64> out)
{
    impl_->controller.readValuesAt(v.reg, first, out);
}

LutHandle
PlutoDevice::loadLut(const std::string &name)
{
    const core::Lut &lut = impl_->library.get(name);
    LutHandle h;
    h.reg = nextSaReg();
    h.lutSize = static_cast<u32>(lut.size());
    h.lutBitw = lut.elemBits();
    run(isa::makeSubarrayAlloc(h.reg, h.lutSize, name));
    return h;
}

LutHandle
PlutoDevice::loadLut(const core::Lut &lut)
{
    impl_->library.registerLut(lut);
    return loadLut(lut.name());
}

void
PlutoDevice::lutOp(const VecHandle &dst, const VecHandle &src,
                   const LutHandle &lut)
{
    run(isa::makeLutOp(dst.reg, src.reg, lut.reg, lut.lutSize,
                       lut.lutBitw));
}

void
PlutoDevice::bitwiseNot(const VecHandle &dst, const VecHandle &src)
{
    run(isa::makeBitwise(isa::Opcode::Not, dst.reg, src.reg));
}

void
PlutoDevice::bitwiseAnd(const VecHandle &dst, const VecHandle &a,
                        const VecHandle &b)
{
    run(isa::makeBitwise(isa::Opcode::And, dst.reg, a.reg, b.reg));
}

void
PlutoDevice::bitwiseOr(const VecHandle &dst, const VecHandle &a,
                       const VecHandle &b)
{
    run(isa::makeBitwise(isa::Opcode::Or, dst.reg, a.reg, b.reg));
}

void
PlutoDevice::bitwiseXor(const VecHandle &dst, const VecHandle &a,
                        const VecHandle &b)
{
    run(isa::makeBitwise(isa::Opcode::Xor, dst.reg, a.reg, b.reg));
}

void
PlutoDevice::mergeOr(const VecHandle &dst, const VecHandle &a,
                     const VecHandle &b)
{
    run(isa::makeBitwise(isa::Opcode::MergeOr, dst.reg, a.reg, b.reg));
}

void
PlutoDevice::shiftLeftBits(const VecHandle &v, u32 bits)
{
    run(isa::makeShift(isa::Opcode::BitShiftL, v.reg, bits));
}

void
PlutoDevice::shiftRightBits(const VecHandle &v, u32 bits)
{
    run(isa::makeShift(isa::Opcode::BitShiftR, v.reg, bits));
}

void
PlutoDevice::shiftLeftBytes(const VecHandle &v, u32 bytes)
{
    run(isa::makeShift(isa::Opcode::ByteShiftL, v.reg, bytes));
}

void
PlutoDevice::shiftRightBytes(const VecHandle &v, u32 bytes)
{
    run(isa::makeShift(isa::Opcode::ByteShiftR, v.reg, bytes));
}

void
PlutoDevice::move(const VecHandle &dst, const VecHandle &src)
{
    run(isa::makeMove(dst.reg, src.reg));
}

void
PlutoDevice::hostWork(TimeNs ns, EnergyPj energy)
{
    impl_->sched.hostTime(ns, energy);
}

void
PlutoDevice::lutOpTimedOnly(const LutHandle &lut, u64 count, u32 parallel)
{
    auto &p = impl_->controller.lutPlacement(lut.reg);
    impl_->engine.queryTimedOnlyBatch(p, parallel, count);
}

VecHandle
PlutoDevice::scratch(const VecHandle &like)
{
    const auto key = std::make_pair(like.elements, like.width);
    const auto it = impl_->scratchPool.find(key);
    if (it != impl_->scratchPool.end())
        return it->second;
    const VecHandle v = alloc(like.elements, like.width);
    impl_->scratchPool.emplace(key, v);
    return v;
}

void
PlutoDevice::apiAdd(const VecHandle &dst, const VecHandle &a,
                    const VecHandle &b, u32 operand_bits)
{
    apiPacked("api_pluto_add", "add", dst, a, b, operand_bits);
}

void
PlutoDevice::apiMul(const VecHandle &dst, const VecHandle &a,
                    const VecHandle &b, u32 operand_bits)
{
    apiPacked("api_pluto_mul", "mul", dst, a, b, operand_bits);
}

void
PlutoDevice::apiMulQ(const VecHandle &dst, const VecHandle &a,
                     const VecHandle &b, u32 operand_bits)
{
    apiPacked("api_pluto_mulq", "mulq", dst, a, b, operand_bits);
}

void
PlutoDevice::apiPacked(const char *api, const char *lut_prefix,
                       const VecHandle &dst, const VecHandle &a,
                       const VecHandle &b, u32 operand_bits)
{
    if (a.width != 2 * operand_bits || dst.width != 2 * operand_bits)
        fatal("%s: vectors must use %u-bit slots", api, 2 * operand_bits);
    // Figure 5 lowering: pack the operands as (a << n) | b, then one
    // pluto_op against the LUT.
    const VecHandle tmp = scratch(a);
    const LutHandle lut =
        lutHandleFor(lut_prefix + std::to_string(operand_bits));
    move(tmp, a);
    shiftLeftBits(tmp, operand_bits);
    mergeOr(tmp, tmp, b);
    lutOp(dst, tmp, lut);
}

void
PlutoDevice::apiBitcount(const VecHandle &dst, const VecHandle &src,
                         u32 bits)
{
    if (bits != 4 && bits != 8)
        fatal("api_pluto_bitcount: only BC-4 and BC-8 are supported");
    const LutHandle lut = lutHandleFor("bc" + std::to_string(bits));
    lutOp(dst, src, lut);
}

LutHandle
PlutoDevice::lutHandleFor(const std::string &name)
{
    const auto it = impl_->lutHandles.find(name);
    if (it != impl_->lutHandles.end())
        return it->second;
    const LutHandle h = loadLut(name);
    impl_->lutHandles.emplace(name, h);
    return h;
}

void
PlutoDevice::startRecording()
{
    impl_->recording = true;
    impl_->recorded = isa::Program();
}

isa::Program
PlutoDevice::stopRecording()
{
    impl_->recording = false;
    return std::move(impl_->recorded);
}

ExecStats
PlutoDevice::stats() const
{
    ExecStats s;
    s.timeNs = impl_->sched.elapsed();
    s.commandEnergyPj = impl_->sched.energyTotal();
    s.energyPj = s.commandEnergyPj +
                 units::energyFromPower(
                     impl_->energy.backgroundPower, s.timeNs);
    s.counters = impl_->sched.stats();
    return s;
}

void
PlutoDevice::resetStats()
{
    impl_->sched.reset();
}

dram::Module &
PlutoDevice::module()
{
    return impl_->module;
}

const dram::Module &
PlutoDevice::module() const
{
    return impl_->module;
}

dram::CommandScheduler &
PlutoDevice::scheduler()
{
    return impl_->sched;
}

const dram::CommandScheduler &
PlutoDevice::scheduler() const
{
    return impl_->sched;
}

core::QueryEngine &
PlutoDevice::engine()
{
    return impl_->engine;
}

const core::QueryEngine &
PlutoDevice::engine() const
{
    return impl_->engine;
}

core::LutStore &
PlutoDevice::lutStore()
{
    return impl_->store;
}

const core::LutStore &
PlutoDevice::lutStore() const
{
    return impl_->store;
}

LutLibrary &
PlutoDevice::library()
{
    return impl_->library;
}

const LutLibrary &
PlutoDevice::library() const
{
    return impl_->library;
}

Controller &
PlutoDevice::controller()
{
    return impl_->controller;
}

const Controller &
PlutoDevice::controller() const
{
    return impl_->controller;
}

const dram::Geometry &
PlutoDevice::geometry() const
{
    return impl_->geom;
}

VecHandle
pluto_malloc(PlutoDevice &dev, u64 size, u32 bitwidth)
{
    return dev.alloc(size, bitwidth);
}

void
api_pluto_add(PlutoDevice &dev, const VecHandle &in1, const VecHandle &in2,
              const VecHandle &out, u32 bitwidth)
{
    dev.apiAdd(out, in1, in2, bitwidth);
}

void
api_pluto_mul(PlutoDevice &dev, const VecHandle &in1, const VecHandle &in2,
              const VecHandle &out, u32 bitwidth)
{
    dev.apiMul(out, in1, in2, bitwidth);
}

} // namespace pluto::runtime
