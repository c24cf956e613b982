#include "common/bitvec.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace pluto
{

namespace
{

u64
getPacked(std::span<const u8> data, u32 width, u64 idx)
{
    const u64 bit = idx * width;
    const u64 byte = bit / 8;
    if (width >= 8) {
        const u64 bytes = width / 8;
        u64 v = 0;
        for (u64 i = 0; i < bytes; ++i)
            v |= static_cast<u64>(data[byte + i]) << (8 * i);
        return v;
    }
    const u32 shift = bit % 8;
    const u8 mask = static_cast<u8>((1u << width) - 1);
    return (data[byte] >> shift) & mask;
}

void
setPacked(std::span<u8> data, u32 width, u64 idx, u64 value)
{
    const u64 bit = idx * width;
    const u64 byte = bit / 8;
    if (width >= 8) {
        const u64 bytes = width / 8;
        for (u64 i = 0; i < bytes; ++i)
            data[byte + i] = static_cast<u8>(value >> (8 * i));
        return;
    }
    const u32 shift = bit % 8;
    const u8 mask = static_cast<u8>((1u << width) - 1);
    data[byte] = static_cast<u8>(
        (data[byte] & ~(mask << shift)) | ((value & mask) << shift));
}

} // namespace

ElementView::ElementView(std::span<u8> data, u32 width)
    : data_(data), width_(width)
{
    if (!isSupportedElementWidth(width))
        panic("unsupported element width %u", width);
}

u64
ElementView::get(u64 idx) const
{
    PLUTO_ASSERT(idx < size());
    return getPacked(data_, width_, idx);
}

void
ElementView::set(u64 idx, u64 value)
{
    PLUTO_ASSERT(idx < size());
    setPacked(data_, width_, idx, value);
}

void
ElementView::fill(u64 value)
{
    // One period of the pattern: a byte holding 8 / width copies of
    // a sub-byte element, or the width / 8 little-endian bytes of a
    // wider one.
    const u64 bytes = size() * width_ / 8;
    const u32 period = width_ >= 8 ? width_ / 8 : 1;
    if (bytes == 0)
        return;
    u8 pattern[4] = {};
    if (width_ >= 8) {
        for (u32 i = 0; i < period; ++i)
            pattern[i] = static_cast<u8>(value >> (8 * i));
    } else {
        const u8 elem = static_cast<u8>(value & ((1u << width_) - 1));
        for (u32 shift = 0; shift < 8; shift += width_)
            pattern[0] |= static_cast<u8>(elem << shift);
    }
    u8 *out = data_.data();
    if (period == 1) {
        std::memset(out, pattern[0], bytes);
        return;
    }
    // Replicate by doubling copies of the already-filled prefix.
    std::memcpy(out, pattern, period);
    for (u64 done = period; done < bytes; done *= 2)
        std::memcpy(out + done, out, std::min(done, bytes - done));
}

ConstElementView::ConstElementView(std::span<const u8> data, u32 width)
    : data_(data), width_(width)
{
    if (!isSupportedElementWidth(width))
        panic("unsupported element width %u", width);
}

u64
ConstElementView::get(u64 idx) const
{
    PLUTO_ASSERT(idx < size());
    return getPacked(data_, width_, idx);
}

std::vector<u8>
packElements(const std::vector<u64> &values, u32 width)
{
    if (!isSupportedElementWidth(width))
        panic("unsupported element width %u", width);
    const u64 bits = values.size() * width;
    std::vector<u8> out((bits + 7) / 8, 0);
    ElementView view(out, width);
    for (u64 i = 0; i < values.size(); ++i)
        view.set(i, values[i]);
    return out;
}

std::vector<u64>
unpackElements(std::span<const u8> data, u32 width)
{
    ConstElementView view(data, width);
    std::vector<u64> out(view.size());
    for (u64 i = 0; i < out.size(); ++i)
        out[i] = view.get(i);
    return out;
}

} // namespace pluto
