/**
 * @file
 * Packed-element bit-vector view over a byte buffer.
 *
 * pLUTo stores LUT indices and LUT elements "bit-parallel": each
 * element occupies `width` adjacent bits of a DRAM row. ElementView
 * provides get/set access to such packed elements for widths of
 * 1, 2, 4, 8, 16 and 32 bits. Elements never straddle a byte boundary
 * for sub-byte widths, mirroring how pLUTo slots align to bitlines.
 */

#ifndef PLUTO_COMMON_BITVEC_HH
#define PLUTO_COMMON_BITVEC_HH

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hh"

namespace pluto
{

/** @return true if `width` is a supported packed-element bit width. */
constexpr bool
isSupportedElementWidth(u32 width)
{
    return width == 1 || width == 2 || width == 4 || width == 8 ||
           width == 16 || width == 32;
}

/** Number of elements of `width` bits that fit in `bytes` bytes. */
constexpr u64
elementsPerBytes(u64 bytes, u32 width)
{
    return bytes * 8 / width;
}

/**
 * Mutable view of packed fixed-width elements over a byte span.
 * Elements are stored little-endian within bytes: element 0 occupies
 * the least-significant bits of byte 0.
 */
class ElementView
{
  public:
    /**
     * @param data Underlying byte storage.
     * @param width Element width in bits (1/2/4/8/16/32).
     */
    ElementView(std::span<u8> data, u32 width);

    /** @return element `idx`, zero-extended to 64 bits. */
    u64 get(u64 idx) const;

    /** Store the low `width` bits of `value` into element `idx`. */
    void set(u64 idx, u64 value);

    /**
     * Store the low `width` bits of `value` into every element: one
     * byte-period pattern replicated across the view (a memset at
     * widths up to 8). Equivalent to set(i, value) for every i.
     */
    void fill(u64 value);

    /** @return number of elements in the view. */
    u64 size() const { return elementsPerBytes(data_.size(), width_); }

    /** @return element width in bits. */
    u32 width() const { return width_; }

  private:
    std::span<u8> data_;
    u32 width_;
};

/** Read-only variant of ElementView. */
class ConstElementView
{
  public:
    ConstElementView(std::span<const u8> data, u32 width);

    /** @return element `idx`, zero-extended to 64 bits. */
    u64 get(u64 idx) const;

    /** @return number of elements in the view. */
    u64 size() const { return elementsPerBytes(data_.size(), width_); }

    /** @return element width in bits. */
    u32 width() const { return width_; }

  private:
    std::span<const u8> data_;
    u32 width_;
};

/**
 * Pack a vector of values into a fresh byte buffer of packed
 * `width`-bit elements.
 */
std::vector<u8> packElements(const std::vector<u64> &values, u32 width);

/** Unpack all `width`-bit elements of `data` into a value vector. */
std::vector<u64> unpackElements(std::span<const u8> data, u32 width);

} // namespace pluto

#endif // PLUTO_COMMON_BITVEC_HH
