/**
 * @file
 * Vector arithmetic, bit-counting and row-level bitwise workloads
 * (Table 4 and the Figure 9 FPGA comparison set): LUT-based vector
 * addition (ADD4/ADD8), point-wise multiplication (MUL4/MUL8 and the
 * composed MUL16), Q-format multiplication (Q1.7 direct, Q1.15
 * composed), BC-4/BC-8 bit counting, and 4-entry-LUT bitwise logic.
 *
 * Narrow operations execute fully functionally through the device
 * API (Figure 5's move/shift/merge/pluto_op lowering). Wide
 * operations (16-bit) are composed of 4-bit partial products and
 * chunked additions; their device cost is charged as the composed
 * query sequence while the decomposition itself is verified on the
 * host against direct arithmetic (Section 5.6 notes pLUTo is not
 * well-suited to large-bit-width queries — the composition is how it
 * still executes them).
 */

#include "workloads/workload.hh"

#include <array>

#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "workloads/chunked.hh"

namespace pluto::workloads
{

namespace
{

/** Chunk filler: each value is the next `rng.below(bound)` draw. */
auto
drawInto(Rng &rng, u64 bound)
{
    return [&rng, bound](u64, std::span<u64> chunk) {
        for (auto &v : chunk)
            v = rng.below(bound);
    };
}

/** Elements that fill `lanes` SALP lanes with `rows` rows each. */
u64
laneFillingElements(dram::MemoryKind kind, u32 slot_bits, u32 rows)
{
    const auto g = dram::Geometry::forKind(kind);
    return g.rowBits() / slot_bits * g.defaultSalp * rows;
}

// ---- Direct (narrow) vector arithmetic ----

class VectorArithWorkload : public Workload
{
  public:
    enum class Op
    {
        Add,
        Mul,
        MulQ,
    };

    VectorArithWorkload(Op op, u32 operand_bits, BaselineRates rates)
        : op_(op), bits_(operand_bits), rates_(rates)
    {
        PLUTO_ASSERT(operand_bits == 1 || operand_bits == 2 ||
                     operand_bits == 4 || operand_bits == 8);
    }

    std::string
    name() const override
    {
        switch (op_) {
          case Op::Add:
            return "ADD" + std::to_string(bits_);
          case Op::Mul:
            return "MUL" + std::to_string(bits_);
          case Op::MulQ:
            return "MULQ1." + std::to_string(bits_ - 1);
        }
        panic("bad Op");
    }

    u64
    defaultElements(dram::MemoryKind kind) const override
    {
        return laneFillingElements(kind, 2 * bits_, 2);
    }

    BaselineRates rates() const override { return rates_; }

    WorkloadResult
    run(runtime::PlutoDevice &dev, u64 elements,
        u64 seed) const override
    {
        WorkloadResult res;
        res.elements = elements;
        const u32 slot = 2 * bits_;
        const u64 bound = 1ull << bits_;

        const auto a = dev.alloc(elements, slot);
        const auto b = dev.alloc(elements, slot);
        const auto out = dev.alloc(elements, slot);
        // The operands are two consecutive runs of `elements` draws;
        // each run's start is saved so verification can replay both.
        Chunker chunks(dev, a);
        Rng rng(mixSeed(bits_ * 1000 + static_cast<u32>(op_), seed));
        const Rng startA = rng;
        chunks.write(a, drawInto(rng, bound));
        const Rng startB = rng;
        chunks.write(b, drawInto(rng, bound));

        // Resolve the kernel's scratch vector and LUT outside the
        // timing, without running it.
        dev.scratch(a);
        dev.lutHandleFor(lutName());
        dev.resetStats();
        switch (op_) {
          case Op::Add:
            dev.apiAdd(out, a, b, bits_);
            break;
          case Op::Mul:
            dev.apiMul(out, a, b, bits_);
            break;
          case Op::MulQ:
            dev.apiMulQ(out, a, b, bits_);
            break;
        }
        const auto stats = dev.stats();
        res.timeNs = stats.timeNs;
        res.energyPj = stats.energyPj;
        res.hostNs = stats.counters.get("host.ns");

        const u64 slot_mask = (slot >= 64) ? ~0ull : (1ull << slot) - 1;
        Rng ra = startA, rb = startB;
        res.verified =
            chunks.verify(out, [&](u64, std::span<const u64> chunk) {
                for (const u64 got : chunk)
                    if (got != (expected(ra.below(bound), rb.below(bound)) &
                                slot_mask))
                        return false;
                return true;
            });
        return res;
    }

  private:
    /** @return the library LUT the kernel's routine queries. */
    std::string
    lutName() const
    {
        const char *prefix = op_ == Op::Add   ? "add"
                             : op_ == Op::Mul ? "mul"
                                              : "mulq";
        return prefix + std::to_string(bits_);
    }

    /** @return the host reference of one element's result. */
    u64
    expected(u64 a, u64 b) const
    {
        switch (op_) {
          case Op::Add:
            return a + b;
          case Op::Mul:
            return a * b;
          case Op::MulQ: {
            // Sign-extend to Q1.(n-1) and take the fixed product.
            const i64 sa = static_cast<i64>(a << (64 - bits_)) >>
                           (64 - bits_);
            const i64 sb = static_cast<i64>(b << (64 - bits_)) >>
                           (64 - bits_);
            return static_cast<u64>((sa * sb) >> (bits_ - 1)) &
                   ((1ull << bits_) - 1);
          }
        }
        panic("bad Op");
    }

    Op op_;
    u32 bits_;
    BaselineRates rates_;
};

// ---- Composed (wide) multiplication ----

class ComposedMulWorkload : public Workload
{
  public:
    ComposedMulWorkload(bool qformat, BaselineRates rates)
        : qformat_(qformat), rates_(rates)
    {
    }

    std::string
    name() const override
    {
        return qformat_ ? "MULQ1.15" : "MUL16";
    }

    u64
    defaultElements(dram::MemoryKind kind) const override
    {
        return laneFillingElements(kind, 32, 2);
    }

    BaselineRates rates() const override { return rates_; }

    WorkloadResult
    run(runtime::PlutoDevice &dev, u64 elements,
        u64 seed) const override
    {
        WorkloadResult res;
        res.elements = elements;

        // Host decomposition check: schoolbook from 4-bit chunks must
        // reproduce the direct product (this is the algorithm the
        // composed query sequence implements).
        Rng rng(mixSeed(qformat_ ? 115 : 16, seed));
        res.verified = true;
        for (u64 i = 0; i < std::min<u64>(elements, 4096); ++i) {
            const u16 a = static_cast<u16>(rng.next());
            const u16 b = static_cast<u16>(rng.next());
            u64 sum = 0;
            for (int ca = 0; ca < 4; ++ca)
                for (int cb = 0; cb < 4; ++cb) {
                    const u64 pa = (a >> (4 * ca)) & 0xf;
                    const u64 pb = (b >> (4 * cb)) & 0xf;
                    sum += (pa * pb) << (4 * (ca + cb));
                }
            u32 expect = static_cast<u32>(a) * b;
            if (qformat_) {
                const i32 sa = static_cast<i16>(a);
                const i32 sb = static_cast<i16>(b);
                expect = static_cast<u32>((static_cast<i64>(sa) * sb) >>
                                          15) & 0xffff;
                // Composed signed product: the unsigned schoolbook sum
                // plus sign-correction terms.
                i64 signed_sum = static_cast<i64>(sum);
                if (sa < 0)
                    signed_sum -= static_cast<i64>(b) << 16;
                if (sb < 0)
                    signed_sum -= static_cast<i64>(a) << 16;
                signed_sum = (signed_sum >> 15) & 0xffff;
                if (static_cast<u32>(signed_sum) != expect)
                    res.verified = false;
            } else if (sum != expect) {
                res.verified = false;
            }
        }

        // Device cost: per wave of SALP rows (32-bit slots), 16
        // 4-bit partial-product queries plus 32 chunked-add queries,
        // each a 256-entry sweep, plus the packing shifts/merges.
        const auto lut = dev.loadLut("mul4");
        const auto addl = dev.loadLut("add4");
        const auto &geom = dev.geometry();
        const u64 slots = geom.rowBits() / 32;
        const u64 rows = (elements + slots - 1) / slots;
        const u64 waves = (rows + dev.salp() - 1) / dev.salp();
        dev.resetStats();
        dev.lutOpTimedOnly(lut, waves * 16, dev.salp());
        dev.lutOpTimedOnly(addl, waves * 32, dev.salp());
        const auto stats = dev.stats();
        res.timeNs = stats.timeNs;
        res.energyPj = stats.energyPj;
        res.hostNs = stats.counters.get("host.ns");
        return res;
    }

  private:
    bool qformat_;
    BaselineRates rates_;
};

// ---- Bit counting ----

class BitCountWorkload : public Workload
{
  public:
    explicit BitCountWorkload(u32 bits)
        : bits_(bits)
    {
        PLUTO_ASSERT(bits == 4 || bits == 8);
    }

    std::string
    name() const override
    {
        return "BC" + std::to_string(bits_);
    }

    u64
    defaultElements(dram::MemoryKind kind) const override
    {
        return laneFillingElements(kind, bits_ == 4 ? 4 : 8, 2);
    }

    BaselineRates
    rates() const override
    {
        // CPU: popcnt-based loop over a >LLC stream. FPGA: HLS
        // popcount tree per element. PnM: bit-serial column sum.
        return bits_ == 4 ? BaselineRates{1.2, 0.02, 4.0, 1.0}
                          : BaselineRates{1.5, 0.02, 5.0, 2.0};
    }

    WorkloadResult
    run(runtime::PlutoDevice &dev, u64 elements,
        u64 seed) const override
    {
        WorkloadResult res;
        res.elements = elements;
        const u32 slot = bits_ == 4 ? 4 : 8;
        const auto in = dev.alloc(elements, slot);
        const auto out = dev.alloc(elements, slot);
        const u64 bound = 1ull << bits_;
        Chunker chunks(dev, in);
        const Rng start(mixSeed(bits_, seed));
        Rng rng = start;
        chunks.write(in, drawInto(rng, bound));
        // Resolve the LUT outside the timing, without running the
        // kernel.
        dev.lutHandleFor("bc" + std::to_string(bits_));
        dev.resetStats();
        dev.apiBitcount(out, in, bits_);
        const auto stats = dev.stats();
        res.timeNs = stats.timeNs;
        res.energyPj = stats.energyPj;
        res.hostNs = stats.counters.get("host.ns");
        rng = start;
        res.verified =
            chunks.verify(out, [&](u64, std::span<const u64> chunk) {
                for (const u64 got : chunk)
                    if (got != static_cast<u64>(
                                   __builtin_popcountll(rng.below(bound))))
                        return false;
                return true;
            });
        return res;
    }

  private:
    u32 bits_;
};

// ---- Row-level bitwise logic (4-entry LUTs, Table 4) ----

class BitwiseWorkload : public Workload
{
  public:
    explicit BitwiseWorkload(std::string kind)
        : kind_(std::move(kind)), gate_(gateFor(kind_))
    {
    }

    std::string
    name() const override
    {
        std::string upper = kind_;
        for (auto &c : upper)
            c = static_cast<char>(std::toupper(c));
        return "Bitwise-" + upper;
    }

    u64
    defaultElements(dram::MemoryKind kind) const override
    {
        // Elements are bits here (1-bit operands in 2-bit slots).
        return laneFillingElements(kind, 2, 2);
    }

    BaselineRates
    rates() const override
    {
        // CPU: 64 bits per cycle-ish streaming over >LLC data. PnM
        // executes Ambit natively, nearly matching pLUTo.
        return {0.1, 0.002, 0.6, 0.012};
    }

    WorkloadResult
    run(runtime::PlutoDevice &dev, u64 elements,
        u64 seed) const override
    {
        WorkloadResult res;
        res.elements = elements;
        const auto a = dev.alloc(elements, 2);
        const auto b = dev.alloc(elements, 2);
        const auto packed = dev.alloc(elements, 2);
        const auto out = dev.alloc(elements, 2);
        Chunker chunks(dev, a);
        Rng rng(mixSeed(kind_.size(), seed));
        const Rng startA = rng;
        chunks.write(a, drawInto(rng, 2));
        const Rng startB = rng;
        chunks.write(b, drawInto(rng, 2));
        const auto lut = dev.loadLut(kind_ + "1");

        dev.resetStats();
        // Interleave the 1-bit operands into (a << 1) | b, then one
        // 4-entry LUT query (Section 8.9's shuffled layout).
        dev.move(packed, a);
        dev.shiftLeftBits(packed, 1);
        dev.mergeOr(packed, packed, b);
        dev.lutOp(out, packed, lut);
        const auto stats = dev.stats();
        res.timeNs = stats.timeNs;
        res.energyPj = stats.energyPj;
        res.hostNs = stats.counters.get("host.ns");

        Rng ra = startA, rb = startB;
        res.verified =
            chunks.verify(out, [&](u64, std::span<const u64> chunk) {
                for (const u64 got : chunk) {
                    const u64 va = ra.below(2);
                    if (got != gate_[(va << 1) | rb.below(2)])
                        return false;
                }
                return true;
            });
        return res;
    }

  private:
    /** Truth table indexed by (a << 1) | b; unknown kinds give 0. */
    using Gate = std::array<u64, 4>;

    static Gate
    gateFor(const std::string &kind)
    {
        if (kind == "and")
            return {0, 0, 0, 1};
        if (kind == "or")
            return {0, 1, 1, 1};
        if (kind == "xor")
            return {0, 1, 1, 0};
        if (kind == "xnor")
            return {1, 0, 0, 1};
        if (kind == "not")
            return {1, 1, 0, 0};
        return {0, 0, 0, 0};
    }

    std::string kind_;
    Gate gate_;
};

} // namespace

WorkloadPtr
makeVectorAdd(u32 operand_bits)
{
    // CPU: SSE2 packed add, bandwidth-bound over >LLC vectors.
    // FPGA: HLS element pipeline. PnM: Ambit bit-serial addition.
    const BaselineRates r{1.5, 0.02, 5.0, operand_bits <= 4 ? 0.5 : 0.8};
    return std::make_unique<VectorArithWorkload>(
        VectorArithWorkload::Op::Add, operand_bits, r);
}

WorkloadPtr
makeVectorMul(u32 operand_bits)
{
    if (operand_bits == 16) {
        // FPGA MUL16 maps to unpipelined DSP chains in the HLS
        // baseline (~30 ns/element) — the paper's smallest-gain case.
        return std::make_unique<ComposedMulWorkload>(
            false, BaselineRates{2.5, 0.03, 30.0, 4.0});
    }
    const BaselineRates r{2.0, 0.025, 8.0, 2.0};
    return std::make_unique<VectorArithWorkload>(
        VectorArithWorkload::Op::Mul, operand_bits, r);
}

WorkloadPtr
makeVectorMulQ(u32 operand_bits)
{
    if (operand_bits == 16) {
        return std::make_unique<ComposedMulWorkload>(
            true, BaselineRates{2.5, 0.03, 30.0, 4.0});
    }
    const BaselineRates r{2.0, 0.025, 8.0, 2.0};
    return std::make_unique<VectorArithWorkload>(
        VectorArithWorkload::Op::MulQ, operand_bits, r);
}

WorkloadPtr
makeBitCount(u32 bits)
{
    return std::make_unique<BitCountWorkload>(bits);
}

WorkloadPtr
makeBitwise(const std::string &kind)
{
    return std::make_unique<BitwiseWorkload>(kind);
}

} // namespace pluto::workloads
