/**
 * @file
 * Word-parallel bulk kernels over packed element rows.
 *
 * ElementView::get/set (bitvec.hh) pay per-element index arithmetic
 * and masking; the functional inner loops of the simulator (LUT-query
 * gather, host pack/unpack, row-wide bitwise math) process millions of
 * elements per campaign and dominate wall-clock. The kernels here
 * process whole bytes or 64-bit words per iteration instead:
 *
 *  - packBulk/unpackBulk move packed rows to/from u64 element arrays
 *    byte-at-a-time (sub-byte widths) or with direct multi-byte
 *    loads (8/16/32-bit), with exact tail handling;
 *  - LutGather performs dst[i] = LUT[src[i]] over a packed row. The
 *    8-bit path indexes a flat 256-entry table; sub-byte paths map a
 *    whole packed byte (2/4/8 elements) through a precomputed
 *    256-entry byte-expansion table, so a single table lookup
 *    translates every element of the byte at once;
 *  - bulkMatchSelect is the word-parallel Match Logic + FF-latch step
 *    of the sweep emulation;
 *  - bulkNot/And/Or/Xor/Xnor/Maj and bulkShiftLeft/Right are the
 *    row-wide ops over u64 spans backing ops/rowmath.
 *
 * The hot kernels additionally carry explicit SIMD paths, selected
 * at runtime through simd::tier() (common/cpuid.hh):
 *
 *  - LutGather and bulkMatchSelect at widths 1/2/4 use `pshufb`
 *    16-byte nibble-table gathers (SSSE3 16 B/iteration, AVX2
 *    32 B/iteration): any sub-byte LUT whose domain is full factors
 *    into a nibble->nibble map, so two shuffles translate 16 packed
 *    bytes — 32/64/128 elements — per step;
 *  - packBulk/unpackBulk at widths <= 8 use AVX2 narrowing/widening
 *    (unpack also at 16/32).
 *
 * The scalar paths are kept verbatim as the fallback and as the
 * property-test oracle: every SIMD path is bit-exact against them
 * (tests/test_common.cc forces each tier via simd::overrideTier and
 * re-runs the randomized equivalence suites across widths, unaligned
 * counts, tails and aliasing), so dispatch can never change results.
 */

#ifndef PLUTO_COMMON_BITVEC_BULK_HH
#define PLUTO_COMMON_BITVEC_BULK_HH

#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace pluto::bulk
{

/**
 * Unpack `out.size()` leading `width`-bit elements of `data` into
 * `out`. Equivalent to ConstElementView::get element-by-element.
 */
void unpackBulk(std::span<const u8> data, u32 width, std::span<u64> out);

/**
 * Pack `values` as `width`-bit elements into the front of `out`,
 * which must hold at least ceil(values.size() * width / 8) bytes.
 * Only the low `width` bits of each value are kept. Unused high bits
 * of the final partial byte are zeroed; bytes past the packed prefix
 * are left untouched.
 */
void packBulk(std::span<const u64> values, u32 width, std::span<u8> out);

/**
 * Precomputed word-parallel LUT gather: dst[i] = LUT[src[i]] over
 * packed `width`-bit rows. Construction copies/expands the LUT into
 * width-matched tables, so a LutGather stays valid independent of the
 * source Lut's lifetime; build once per placement and reuse per query.
 */
class LutGather
{
  public:
    /**
     * @param values LUT contents (only the low `width` bits of each
     *        entry are kept).
     * @param width Element width in bits (1/2/4/8/16/32).
     * @param name Diagnostic LUT name for out-of-range panics.
     */
    LutGather(std::span<const u64> values, u32 width, std::string name);

    /**
     * Gather `count` elements: dst[i] = LUT[src[i]]. Panics (like the
     * scalar query path) if any source element holds an index >= the
     * LUT size. src and dst may alias the same row.
     */
    void apply(std::span<const u8> src, std::span<u8> dst,
               u64 count) const;

    u32 width() const { return width_; }
    u64 size() const { return size_; }

  private:
    [[noreturn]] void failAt(u64 slot, u64 idx) const;
    /** Scalar re-scan of a failed byte to name the exact slot. */
    [[noreturn]] void failInByte(std::span<const u8> src,
                                 u64 byte_idx) const;

    u32 width_;
    u64 size_;
    std::string name_;
    /**
     * width < 8 with a full LUT: nibble-expansion table (nib_[n] =
     * translation of the 4/width elements packed in nibble n), the
     * 16-byte `pshufb` operand of the SIMD gather. Satisfies
     * byteMap_[b] == nib_[b & 15] | nib_[b >> 4] << 4.
     */
    u8 nib_[16] = {};
    bool hasNib_ = false;
    /**
     * width <= 8: byte-expansion table, mapping a packed input byte
     * to the packed output byte (all 8/width elements at once).
     */
    std::vector<u8> byteMap_;
    /** width < 8 with a partial LUT: per-byte validity. */
    std::vector<u8> byteOk_;
    /** width == 8 only: first out-of-range source byte value. */
    u32 limit8_ = 256;
    std::vector<u16> table16_;
    std::vector<u32> table32_;
};

/**
 * Word-parallel Match Logic + latch (sweep emulation): for every
 * packed `width`-bit slot whose source index equals `row_index`,
 * latch the corresponding slot of `lut_row` into `ff`; other slots
 * keep their ff contents. Equivalent to a per-slot ElementView
 * compare-and-copy.
 */
void bulkMatchSelect(std::span<const u8> src, std::span<const u8> lut_row,
                     std::span<u8> ff, u32 width, u64 row_index);

// ---- Row-wide bitwise ops over u64 words (byte tails handled) ----

/** dst = ~src. Spans must be the same size; aliasing allowed. */
void bulkNot(std::span<const u8> src, std::span<u8> dst);

/** dst = a & b. */
void bulkAnd(std::span<const u8> a, std::span<const u8> b,
             std::span<u8> dst);

/** dst = a | b. */
void bulkOr(std::span<const u8> a, std::span<const u8> b,
            std::span<u8> dst);

/** dst = a ^ b. */
void bulkXor(std::span<const u8> a, std::span<const u8> b,
             std::span<u8> dst);

/** dst = ~(a ^ b). */
void bulkXnor(std::span<const u8> a, std::span<const u8> b,
              std::span<u8> dst);

/** dst = bitwise majority of a, b, c. */
void bulkMaj(std::span<const u8> a, std::span<const u8> b,
             std::span<const u8> c, std::span<u8> dst);

/** In-place little-endian left shift by `bits` (zero fill). */
void bulkShiftLeft(std::span<u8> row, u32 bits);

/** In-place little-endian right shift by `bits` (zero fill). */
void bulkShiftRight(std::span<u8> row, u32 bits);

} // namespace pluto::bulk

#endif // PLUTO_COMMON_BITVEC_BULK_HH
