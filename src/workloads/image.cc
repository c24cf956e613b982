/**
 * @file
 * Image workloads (Table 4): binarization (ImgBin) and color grading
 * (ColorGrade) over a 3-channel, 8-bit, 936000-pixel image. Both map
 * to a single bulk 8-bit-to-8-bit LUT query per image row, executed
 * end-to-end on the device and verified against the host reference.
 */

#include "workloads/workload.hh"

#include <algorithm>

#include "common/random.hh"

namespace pluto::workloads
{

namespace
{

/** Deterministic synthetic image bytes (pixel channel values). */
std::vector<u64>
syntheticImage(u64 bytes, u64 seed)
{
    Rng rng(seed);
    std::vector<u64> img(bytes);
    // Smooth gradients plus noise, so thresholding and grading
    // exercise the full value range.
    for (u64 i = 0; i < bytes; ++i) {
        const u64 base = (i * 7919 / 4096) % 200;
        img[i] = (base + rng.below(56)) & 0xff;
    }
    return img;
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
        // Both references map bytes to bytes, so the expected image
        // is kept as bytes and the u64 input vector is dropped before
        // the result is read back: one u64 vector is live at a time.
        std::vector<u8> expect(elements);
        {
            const auto image =
                syntheticImage(elements, mixSeed(936000, seed));
            dev.write(in, image);
            for (u64 i = 0; i < elements; ++i)
                expect[i] = static_cast<u8>(reference_(image[i]));
        }

        dev.resetStats(); // kernel time excludes LUT loading
        dev.lutOp(out, in, lut);
        const auto stats = dev.stats();
        res.timeNs = stats.timeNs;
        res.energyPj = stats.energyPj;
        res.hostNs = stats.counters.get("host.ns");

        const auto got = dev.read(out);
        res.verified = std::equal(got.begin(), got.end(),
                                  expect.begin(), expect.end());
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
