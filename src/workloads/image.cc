/**
 * @file
 * Image workloads (Table 4): binarization (ImgBin) and color grading
 * (ColorGrade) over a 3-channel, 8-bit, 936000-pixel image. Both map
 * to a single bulk 8-bit-to-8-bit LUT query per image row, executed
 * end-to-end on the device and verified against the host reference.
 */

#include "workloads/workload.hh"

#include <array>
#include <functional>

#include "common/random.hh"
#include "workloads/chunked.hh"

namespace pluto::workloads
{

namespace
{

/**
 * Deterministic synthetic image byte `i` (a pixel channel value):
 * smooth gradients plus noise from `rng`, one draw per byte in
 * order, so thresholding and grading exercise the full value range.
 */
u64
imageByte(u64 i, Rng &rng)
{
    const u64 base = (i * 7919 / 4096) % 200;
    return (base + rng.below(56)) & 0xff;
}

/** Shared implementation: one 8->8 LUT applied to every byte. */
class LutImageWorkload : public Workload
{
  public:
    LutImageWorkload(std::string name, std::string lut_name,
                     BaselineRates rates,
                     std::function<u64(u64)> reference)
        : name_(std::move(name)), lutName_(std::move(lut_name)),
          rates_(rates), reference_(std::move(reference))
    {
    }

    std::string name() const override { return name_; }

    u64
    defaultElements(dram::MemoryKind) const override
    {
        return 936000ull * 3; // 3-channel 8-bit image (Table 4)
    }

    BaselineRates rates() const override { return rates_; }

    WorkloadResult
    run(runtime::PlutoDevice &dev, u64 elements,
        u64 seed) const override
    {
        WorkloadResult res;
        res.elements = elements;

        const auto lut = dev.loadLut(lutName_);
        const auto in = dev.alloc(elements, 8);
        const auto out = dev.alloc(elements, 8);
        Chunker chunks(dev, in);
        const Rng start(mixSeed(936000, seed));
        Rng rng = start;
        chunks.write(in, [&](u64 first, std::span<u64> chunk) {
            for (u64 k = 0; k < chunk.size(); ++k)
                chunk[k] = imageByte(first + k, rng);
        });

        dev.resetStats(); // kernel time excludes LUT loading
        dev.lutOp(out, in, lut);
        const auto stats = dev.stats();
        res.timeNs = stats.timeNs;
        res.energyPj = stats.energyPj;
        res.hostNs = stats.counters.get("host.ns");

        // Both references map bytes to bytes: apply each once per
        // byte value, then check the replayed image through the table.
        std::array<u8, 256> expect;
        for (u64 v = 0; v < expect.size(); ++v)
            expect[v] = static_cast<u8>(reference_(v));
        rng = start;
        res.verified =
            chunks.verify(out, [&](u64 first, std::span<const u64> chunk) {
                for (u64 k = 0; k < chunk.size(); ++k)
                    if (chunk[k] != expect[imageByte(first + k, rng)])
                        return false;
                return true;
            });
        return res;
    }

  private:
    std::string name_;
    std::string lutName_;
    BaselineRates rates_;
    std::function<u64(u64)> reference_;
};

} // namespace

WorkloadPtr
makeImageBinarization()
{
    // CPU: single-thread, branchy 3-channel pixel loop whose working
    // set exceeds the LLC (Section 7.2) -> ~25 ns/byte. GPU: PCIe-
    // transfer-bound at ~0.04 ns/byte. FPGA: naive HLS byte pipeline
    // at ~5 ns/byte. PnM: bit-serial 8-bit compare via Ambit,
    // ~1.1 ns/byte.
    BaselineRates r{25.0, 0.04, 5.0, 1.1};
    return std::make_unique<LutImageWorkload>(
        "ImgBin", "binarize128", r,
        [](u64 v) { return v >= 128 ? 255ull : 0ull; });
}

WorkloadPtr
makeColorGrade()
{
    // CPU: per-byte table lookup with poor locality over a large
    // frame, ~30 ns/byte. GPU: PCIe-bound ~0.045. FPGA: ~5. PnM: a
    // 256-entry table walk in bit-serial logic, ~1.3 ns/byte.
    BaselineRates r{30.0, 0.045, 5.0, 1.3};
    // Reference mirrors luts::colorGrade(); resolved through a
    // library instance so workload and device share one definition.
    runtime::LutLibrary lib;
    const core::Lut lut = lib.get("colorgrade");
    auto ref = [lut](u64 v) { return lut.at(v); };
    return std::make_unique<LutImageWorkload>("ColorGrade",
                                              "colorgrade", r, ref);
}

} // namespace pluto::workloads
