/**
 * @file
 * CRC-8/16/32 workloads (Table 4; packet size 128 B).
 *
 * Mapping: packets are laid out "transposed" — one element slot per
 * packet — so each of the 128 byte-steps advances *all* packet CRCs
 * with one bulk LUT query plus a handful of in-DRAM bitwise/shift
 * ops (the standard table-driven CRC recurrence). The final
 * cross-packet combination is a serial reduction that stays on the
 * CPU, which is why CRC shows the smallest pLUTo benefit
 * (Section 8.2's observation).
 */

#include "workloads/workload.hh"

#include <algorithm>

#include "common/logging.hh"
#include "workloads/chunked.hh"
#include "workloads/crc.hh"

namespace pluto::workloads
{

namespace
{

constexpr u64 packetBytes = 128;

/** Deterministic packet byte: packet `p`, position `j`. */
u8
packetByte(u64 p, u64 j, u64 seed)
{
    // The seed enters through its own odd multiplier so distinct
    // seeds yield decorrelated streams rather than shifted ones
    // (seed + index would alias seed s with position j + s); seed 0
    // reproduces the historical inputs exactly.
    u64 x = (p * 131 + j + seed * 0x632be59bd9b4e019ULL) *
            0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    return static_cast<u8>(x);
}

class CrcWorkload : public Workload
{
  public:
    explicit CrcWorkload(u32 width)
        : width_(width)
    {
        PLUTO_ASSERT(width == 8 || width == 16 || width == 32);
    }

    std::string
    name() const override
    {
        return "CRC-" + std::to_string(width_);
    }

    u64
    defaultElements(dram::MemoryKind kind) const override
    {
        // One packet per element slot, all SALP lanes full.
        const auto g = dram::Geometry::forKind(kind);
        const u64 slots = g.rowBits() / width_;
        return slots * g.defaultSalp * packetBytes;
    }

    BaselineRates
    rates() const override
    {
        // CPU: single-thread table-driven CRC over a >LLC stream
        // (~14/18/23 cycles per byte incl. load stalls). GPU:
        // packet-parallel but launch/transfer bound. FPGA: HLS
        // packet engines at a few ns/byte. PnM: Ambit XOR + logic-
        // layer table walk.
        switch (width_) {
          case 8:
            return {6.0, 0.18, 2.0, 1.5};
          case 16:
            return {8.0, 0.34, 2.5, 2.5};
          default:
            return {10.0, 0.48, 3.0, 4.0};
        }
    }

    WorkloadResult
    run(runtime::PlutoDevice &dev, u64 elements,
        u64 seed) const override
    {
        WorkloadResult res;
        const u64 packets = elements / packetBytes;
        PLUTO_ASSERT(packets > 0);
        res.elements = packets * packetBytes;

        const auto lut = dev.loadLut("crc" + std::to_string(width_));
        const auto state = dev.alloc(packets, width_);
        const auto bytes = dev.alloc(packets, width_);
        const auto t1 = dev.alloc(packets, width_);
        const auto t2 = dev.alloc(packets, width_);
        const auto t3 = dev.alloc(packets, width_);
        const auto maskLow = dev.alloc(packets, width_);
        const auto maskRest = dev.alloc(packets, width_);

        // Constant rows (loaded once, outside the kernel timing).
        Chunker chunks(dev, state);
        const auto fill = [&](const runtime::VecHandle &v, u64 value) {
            chunks.write(v, [value](u64, std::span<u64> chunk) {
                std::fill(chunk.begin(), chunk.end(), value);
            });
        };
        fill(maskLow, 0xff);
        fill(maskRest, width_ == 32 ? 0x00ffffffull : 0x00ffull);
        const CrcReference ref(width_);
        fill(state, ref.init());

        // Each packet's reference CRC absorbs its bytes as they are
        // staged, so no byte is generated twice.
        std::vector<u32> expect(packets, ref.init());
        dev.resetStats();
        for (u64 j = 0; j < packetBytes; ++j) {
            // Input bytes are already DRAM-resident in a PuM system;
            // the host write below is data staging, not kernel work.
            chunks.write(bytes, [&](u64 first, std::span<u64> chunk) {
                for (u64 k = 0; k < chunk.size(); ++k) {
                    const u8 b = packetByte(first + k, j, seed);
                    chunk[k] = b;
                    expect[first + k] = ref.step(expect[first + k], b);
                }
            });
            switch (width_) {
              case 8:
                // crc = T[crc ^ byte]
                dev.bitwiseXor(t1, state, bytes);
                dev.lutOp(state, t1, lut);
                break;
              case 16:
                // crc = (crc << 8) ^ T[(crc >> 8) ^ byte]
                dev.move(t1, state);
                dev.shiftRightBits(t1, 8);
                dev.bitwiseAnd(t1, t1, maskLow);
                dev.bitwiseXor(t1, t1, bytes);
                dev.lutOp(t2, t1, lut);
                dev.bitwiseAnd(t3, state, maskLow);
                dev.shiftLeftBits(t3, 8);
                dev.bitwiseXor(state, t3, t2);
                break;
              default:
                // crc = (crc >> 8) ^ T[(crc ^ byte) & 0xff]
                dev.bitwiseXor(t1, state, bytes);
                dev.bitwiseAnd(t1, t1, maskLow);
                dev.lutOp(t2, t1, lut);
                dev.move(t3, state);
                dev.shiftRightBits(t3, 8);
                dev.bitwiseAnd(t3, t3, maskRest);
                dev.bitwiseXor(state, t3, t2);
                break;
            }
        }

        // Serial CPU-side combination of per-packet CRCs
        // (Section 8.2): ~8 ns per packet at 30 W.
        dev.hostWork(8.0 * packets,
                     units::energyFromPower(30.0, 8.0 * packets));

        const auto stats = dev.stats();
        res.timeNs = stats.timeNs;
        res.energyPj = stats.energyPj;
        res.hostNs = stats.counters.get("host.ns");

        res.verified = chunks.verify(
            state, [&](u64 first, std::span<const u64> chunk) {
                return std::equal(chunk.begin(), chunk.end(),
                                  expect.begin() +
                                      static_cast<std::ptrdiff_t>(first));
            });
        return res;
    }

  private:
    u32 width_;
};

} // namespace

CrcReference::CrcReference(u32 width)
    : width_(width),
      init_(width == 8 ? 0u : width == 16 ? 0xffffu : 0xffffffffu)
{
    PLUTO_ASSERT(width == 8 || width == 16 || width == 32);
    // Entry i is the register after eight bit-serial steps from the
    // byte i in the position the recurrence in step() feeds it.
    for (u32 i = 0; i < 256; ++i) {
        u32 crc = width == 16 ? i << 8 : i;
        for (int k = 0; k < 8; ++k) {
            switch (width) {
              case 8:
                crc = ((crc << 1) ^ (0x07u & (0u - (crc >> 7)))) & 0xff;
                break;
              case 16:
                crc = ((crc << 1) ^ (0x1021u & (0u - (crc >> 15)))) &
                      0xffff;
                break;
              default:
                crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
                break;
            }
        }
        table_[i] = crc;
    }
}

u32
CrcReference::of(std::span<const u8> bytes) const
{
    u32 crc = init_;
    for (const u8 b : bytes)
        crc = step(crc, b);
    return crc;
}

WorkloadPtr
makeCrc(u32 width)
{
    return std::make_unique<CrcWorkload>(width);
}

} // namespace pluto::workloads
