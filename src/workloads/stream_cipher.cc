/**
 * @file
 * Cryptographic stream-cipher workloads (Table 4): Salsa20 [128] and
 * VMPC [129], over 512 B packets.
 *
 * Both ciphers are implemented in full as host references (the
 * golden model). On the device, keystream generation is charged as
 * bulk LUT-query work — Salsa20's quarter-round arithmetic decomposed
 * into chunked add/rotate LUT queries, VMPC's per-byte permutation
 * walks as 8-to-8 queries — while the keystream-application phase
 * (ciphertext = plaintext XOR keystream) executes *functionally* on
 * the device and is verified against the reference. VMPC's
 * data-dependent permutation updates cannot be expressed as static
 * bulk queries, so its query phase is timing-only (see DESIGN.md and
 * EXPERIMENTS.md).
 */

#include "workloads/workload.hh"

#include <array>

#include "common/logging.hh"
#include "common/random.hh"
#include "workloads/chunked.hh"

namespace pluto::workloads
{

namespace
{

constexpr u64 packetSize = 512; // bytes per packet (Table 4)

// ---- Salsa20 reference (D. J. Bernstein's specification) ----

u32
rotl32(u32 x, int k)
{
    return (x << k) | (x >> (32 - k));
}

void
salsa20Block(const std::array<u32, 16> &in, std::array<u32, 16> &out)
{
    std::array<u32, 16> x = in;
    auto qr = [&](int a, int b, int c, int d) {
        x[b] ^= rotl32(x[a] + x[d], 7);
        x[c] ^= rotl32(x[b] + x[a], 9);
        x[d] ^= rotl32(x[c] + x[b], 13);
        x[a] ^= rotl32(x[d] + x[c], 18);
    };
    for (int round = 0; round < 20; round += 2) {
        qr(0, 4, 8, 12);
        qr(5, 9, 13, 1);
        qr(10, 14, 2, 6);
        qr(15, 3, 7, 11);
        qr(0, 1, 2, 3);
        qr(5, 6, 7, 4);
        qr(10, 11, 8, 9);
        qr(15, 12, 13, 14);
    }
    for (int i = 0; i < 16; ++i)
        out[i] = x[i] + in[i];
}

/** Salsa20 keystream for one packet (key/nonce derived from `p`). */
std::vector<u8>
salsa20Keystream(u64 p, u64 bytes)
{
    // expand 32-byte k: sigma constants + per-packet key.
    std::array<u32, 16> st{};
    st[0] = 0x61707865;
    st[5] = 0x3320646e;
    st[10] = 0x79622d32;
    st[15] = 0x6b206574;
    Rng key_rng(p * 2654435761u + 77);
    for (const int i : {1, 2, 3, 4, 11, 12, 13, 14})
        st[i] = static_cast<u32>(key_rng.next());
    st[6] = static_cast<u32>(p);       // nonce
    st[7] = static_cast<u32>(p >> 32);
    std::vector<u8> ks;
    ks.reserve(bytes);
    std::array<u32, 16> block;
    for (u64 counter = 0; ks.size() < bytes; ++counter) {
        st[8] = static_cast<u32>(counter);
        st[9] = static_cast<u32>(counter >> 32);
        salsa20Block(st, block);
        for (int i = 0; i < 16 && ks.size() < bytes; ++i)
            for (int b = 0; b < 4 && ks.size() < bytes; ++b)
                ks.push_back(static_cast<u8>(block[i] >> (8 * b)));
    }
    return ks;
}

// ---- VMPC reference (Zoltak, FSE 2004) ----

/** VMPC keystream for one packet (KSA keyed by `p`). */
std::vector<u8>
vmpcKeystream(u64 p, u64 bytes)
{
    std::array<u8, 256> perm;
    for (int i = 0; i < 256; ++i)
        perm[i] = static_cast<u8>(i);
    Rng key_rng(p * 40503 + 13);
    std::array<u8, 16> key;
    for (auto &k : key)
        k = static_cast<u8>(key_rng.next());

    u8 s = 0;
    // KSA: 3 x 256 rounds over the key.
    for (int round = 0; round < 768; ++round) {
        const int n = round & 0xff;
        s = perm[(s + perm[n] + key[round % key.size()]) & 0xff];
        std::swap(perm[n], perm[s]);
    }
    // PRGA.
    std::vector<u8> ks(bytes);
    u8 n = 0;
    for (u64 i = 0; i < bytes; ++i) {
        s = perm[(s + perm[n]) & 0xff];
        ks[i] = perm[(perm[perm[s]] + 1) & 0xff];
        std::swap(perm[n], perm[s]);
        ++n;
    }
    return ks;
}

/**
 * Keystream bytes by global byte index, generating one packet's
 * keystream at a time (callers walk the indices in order).
 */
class Keystream
{
  public:
    explicit Keystream(bool salsa) : salsa_(salsa) {}

    u8
    at(u64 i)
    {
        const u64 p = i / packetSize;
        if (bytes_.empty() || p != packet_) {
            bytes_ = salsa_ ? salsa20Keystream(p, packetSize)
                            : vmpcKeystream(p, packetSize);
            packet_ = p;
        }
        return bytes_[i % packetSize];
    }

  private:
    bool salsa_;
    u64 packet_ = 0;
    std::vector<u8> bytes_;
};

/**
 * Shared cipher-workload implementation: the keystream phase is
 * charged as `queriesPerRowWave` bulk LUT queries (plus bitwise
 * overhead) per DRAM row of keystream; the XOR application phase is
 * functional.
 */
class StreamCipherWorkload : public Workload
{
  public:
    StreamCipherWorkload(std::string name, bool salsa,
                         double queries_per_byte, BaselineRates rates)
        : name_(std::move(name)), salsa_(salsa),
          queriesPerByte_(queries_per_byte), rates_(rates)
    {
    }

    std::string name() const override { return name_; }

    u64
    defaultElements(dram::MemoryKind kind) const override
    {
        const auto g = dram::Geometry::forKind(kind);
        // Fill all SALP lanes with two rows each.
        return static_cast<u64>(g.rowBytes) * g.defaultSalp * 2;
    }

    BaselineRates rates() const override { return rates_; }

    WorkloadResult
    run(runtime::PlutoDevice &dev, u64 elements,
        u64 seed) const override
    {
        WorkloadResult res;
        const u64 packets =
            std::max<u64>(1, elements / packetSize);
        const u64 bytes = packets * packetSize;
        res.elements = bytes;

        const auto lut = dev.loadLut("exp3mod256"); // stand-in 8->8 LUT
        const auto vplain = dev.alloc(bytes, 8);
        const auto vks = dev.alloc(bytes, 8);
        const auto vct = dev.alloc(bytes, 8);

        // Host golden model: plaintext bytes are consecutive draws of
        // `rng`, keystream bytes come from the packet's own cipher
        // state, each generated per chunk on staging and again on
        // verification.
        Chunker chunks(dev, vplain);
        const Rng start(mixSeed(salsa_ ? 20u : 4u, seed));
        Rng rng = start;
        chunks.write(vplain, [&](u64, std::span<u64> chunk) {
            for (auto &v : chunk)
                v = static_cast<u8>(rng.next());
        });
        Keystream ks(salsa_);
        chunks.write(vks, [&](u64 first, std::span<u64> chunk) {
            for (u64 k = 0; k < chunk.size(); ++k)
                chunk[k] = ks.at(first + k);
        });

        dev.resetStats();
        // Keystream generation: one bulk 8->8 query performs one
        // lookup per byte slot of a row, so a density of Q lookups
        // per keystream byte costs Q bulk queries per wave of SALP
        // rows.
        const auto &geom = dev.geometry();
        const u64 rows =
            (bytes + geom.rowBytes - 1) / geom.rowBytes;
        const u64 waves = (rows + dev.salp() - 1) / dev.salp();
        const u64 queries =
            waves * static_cast<u64>(queriesPerByte_ + 0.5);
        dev.lutOpTimedOnly(lut, queries, dev.salp());
        // Application phase: ciphertext = plaintext ^ keystream
        // (functional, verified).
        dev.bitwiseXor(vct, vplain, vks);

        const auto stats = dev.stats();
        res.timeNs = stats.timeNs;
        res.energyPj = stats.energyPj;
        res.hostNs = stats.counters.get("host.ns");

        rng = start;
        res.verified =
            chunks.verify(vct, [&](u64 first, std::span<const u64> chunk) {
                for (u64 k = 0; k < chunk.size(); ++k)
                    if (chunk[k] != (static_cast<u8>(rng.next()) ^
                                     ks.at(first + k)))
                        return false;
                return true;
            });
        return res;
    }

  private:
    std::string name_;
    bool salsa_;
    double queriesPerByte_;
    BaselineRates rates_;
};

} // namespace

WorkloadPtr
makeSalsa20()
{
    // pLUTo query density: the 512-bit-state quarter rounds decompose
    // to ~4 bulk 256-entry LUT queries' worth of sweep work per
    // keystream byte (chunked adds + rotate tables amortized across a
    // full row of packets). CPU: scalar reference implementation with
    // >LLC streaming, ~140 cycles/byte -> 60 ns/B. GPU: block-
    // parallel, ~0.35. FPGA: HLS round pipeline, ~8. PnM: Ambit-
    // assisted adds, ~4.
    return std::make_unique<StreamCipherWorkload>(
        "Salsa20", true, 4.0, BaselineRates{60.0, 0.35, 8.0, 4.0});
}

WorkloadPtr
makeVmpc()
{
    // pLUTo query density: 3 permutation lookups per output byte
    // (s-walk, output, swap staging) ~ 3 queries/byte. CPU: serial
    // dependent loads, ~200 cycles/byte -> 90 ns/B. GPU: divergent
    // and latency-bound, ~0.75 (the paper's GPU loses badly here,
    // Section 8.2.1). FPGA: ~9. PnM: ~5.
    return std::make_unique<StreamCipherWorkload>(
        "VMPC", false, 3.0, BaselineRates{90.0, 0.75, 9.0, 5.0});
}

} // namespace pluto::workloads
